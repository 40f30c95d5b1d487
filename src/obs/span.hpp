// RAII tracing scopes over the locale grid (header-only; sits above
// runtime/locale_grid.hpp in the layering, unlike the rest of src/obs
// which sits below it).
//
//   PGB_TRACE_SPAN(grid, "spmspv.gather");          grid-wide phase span
//   PGB_TRACE_SPAN(grid, "bfs.level",               ... with args
//                  {{"level", std::to_string(k)}});
//   PGB_TRACE_CTX_SPAN(ctx, "spmspv.spa");          one locale's span
//
// A grid span opens one span per locale track, each stamped with that
// locale's own SimClock, and closes them all when the scope ends — after
// a barrier-synchronized phase every track shows the same interval, and
// the per-track stacks give nested scopes their depth. On close, a grid
// span also attaches the grid-wide comm delta ("d_messages",
// "d_bytes") accumulated during the phase, so a timeline span answers
// "how much traffic did this phase move" without a metrics file.
// Grid spans additionally sample the counter tracks (comm.messages,
// comm.bytes, ...) at open and close, so Perfetto shows the cumulative
// counters stepping exactly at phase boundaries.
//
// When no session is attached the constructors reduce to one null
// check; scopes are also epoch-guarded, so a scope that survives a
// grid.reset() closes silently instead of writing into the new epoch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/locale_grid.hpp"

namespace pgb::obs {

class GridSpan {
 public:
  GridSpan(LocaleGrid& grid, const char* name, TraceArgs args = {})
      : grid_(grid) {
    auto* session = grid.trace_session();
    if (session == nullptr) return;
    active_ = true;
    epoch_ = grid.epoch();
    const CommStats cs = grid.comm_stats();
    msgs0_ = cs.messages;
    bytes0_ = cs.bytes;
    grid.sample_counter_tracks();
    for (int l = 0; l < grid.num_locales(); ++l) {
      session->begin_span(l, name, grid.clock(l).now(), args);
    }
  }

  GridSpan(const GridSpan&) = delete;
  GridSpan& operator=(const GridSpan&) = delete;

  ~GridSpan() { end(); }

  /// Closes the span early (the destructor is then a no-op).
  void end() {
    if (!active_) return;
    active_ = false;
    auto* session = grid_.trace_session();
    if (session == nullptr || grid_.epoch() != epoch_) return;
    const CommStats cs = grid_.comm_stats();
    const TraceArgs extra{
        {"d_messages", std::to_string(cs.messages - msgs0_)},
        {"d_bytes", std::to_string(cs.bytes - bytes0_)}};
    for (int l = 0; l < grid_.num_locales(); ++l) {
      session->end_span(l, grid_.clock(l).now(), extra);
    }
    grid_.sample_counter_tracks();
  }

 private:
  LocaleGrid& grid_;
  bool active_ = false;
  std::uint64_t epoch_ = 0;
  std::int64_t msgs0_ = 0;
  std::int64_t bytes0_ = 0;
};

class LocaleSpan {
 public:
  LocaleSpan(LocaleCtx& ctx, const char* name, TraceArgs args = {})
      : grid_(ctx.grid()), locale_(ctx.locale()) {
    auto* session = grid_.trace_session();
    if (session == nullptr) return;
    active_ = true;
    epoch_ = grid_.epoch();
    session->begin_span(locale_, name, grid_.clock(locale_).now(),
                        std::move(args));
  }

  LocaleSpan(const LocaleSpan&) = delete;
  LocaleSpan& operator=(const LocaleSpan&) = delete;

  ~LocaleSpan() { end(); }

  void end() {
    if (!active_) return;
    active_ = false;
    auto* session = grid_.trace_session();
    if (session == nullptr || grid_.epoch() != epoch_) return;
    session->end_span(locale_, grid_.clock(locale_).now());
  }

 private:
  LocaleGrid& grid_;
  int locale_;
  bool active_ = false;
  std::uint64_t epoch_ = 0;
};

/// Per-query "query.level" spans for one wave of a batched traversal.
/// When the service executor bound lane tracks on the session
/// (TraceSession::set_lane_tracks), end() puts one span on each added
/// lane's query track, covering the wave from construction to end() and
/// tagged with the round the lanes reached, the lane's own frontier, the
/// wave width and the wave's comm delta. Without bound tracks every call
/// is a no-op.
class LaneLevelSpans {
 public:
  explicit LaneLevelSpans(LocaleGrid& grid) : grid_(grid) {
    auto* session = grid.trace_session();
    if (session == nullptr || !session->has_lane_tracks()) return;
    session_ = session;
    t0_ = grid.time();
    const CommStats cs = grid.comm_stats();
    msgs0_ = cs.messages;
    bytes0_ = cs.bytes;
  }

  /// Lane `lane` joins the wave with `frontier` entries.
  void add(int lane, std::int64_t frontier) {
    if (session_ != nullptr) lanes_.push_back({lane, frontier});
  }

  /// Closes the wave at round `level` (lanes advance in lockstep).
  void end(std::int64_t level) {
    if (session_ == nullptr) return;
    const double t1 = grid_.time();
    const CommStats cs = grid_.comm_stats();
    const TraceArgs extra{
        {"d_messages", std::to_string(cs.messages - msgs0_)},
        {"d_bytes", std::to_string(cs.bytes - bytes0_)}};
    const std::string width = std::to_string(lanes_.size());
    for (const auto& [lane, frontier] : lanes_) {
      const int tr = session_->lane_track(lane);
      if (tr < 0) continue;
      session_->begin_span(tr, "query.level", t0_,
                           {{"level", std::to_string(level)},
                            {"frontier", std::to_string(frontier)},
                            {"width", width}});
      session_->end_span(tr, t1, extra);
    }
  }

 private:
  LocaleGrid& grid_;
  TraceSession* session_ = nullptr;
  double t0_ = 0.0;
  std::int64_t msgs0_ = 0;
  std::int64_t bytes0_ = 0;
  std::vector<std::pair<int, std::int64_t>> lanes_;
};

/// Instant event on one locale's track (no-op without a session).
inline void trace_instant(LocaleCtx& ctx, const char* name,
                          TraceArgs args = {}) {
  auto* session = ctx.grid().trace_session();
  if (session == nullptr) return;
  session->instant(ctx.locale(), name, ctx.clock().now(), std::move(args));
}

#define PGB_OBS_CONCAT2(a, b) a##b
#define PGB_OBS_CONCAT(a, b) PGB_OBS_CONCAT2(a, b)

/// Grid-wide phase span for the enclosing scope.
#define PGB_TRACE_SPAN(grid, ...)                                 \
  ::pgb::obs::GridSpan PGB_OBS_CONCAT(pgb_trace_span_, __LINE__)( \
      (grid), __VA_ARGS__)

/// Single-locale span (inside a coforall body) for the enclosing scope.
#define PGB_TRACE_CTX_SPAN(ctx, ...)                                    \
  ::pgb::obs::LocaleSpan PGB_OBS_CONCAT(pgb_trace_ctx_span_, __LINE__)( \
      (ctx), __VA_ARGS__)

}  // namespace pgb::obs
