// Host-time spans for the benchmark driver, and their self-time analysis.
//
// Every call the driver makes into a library module goes through
// CallLog::run: it times the call on the host, accumulates the grid's
// comm counters it moved, and — in a traced run — records a span named
// "<module>.<function>()" on the session's wall clock. analyze() then
// merges those spans with the spans src/ already emits (grid-wide phase
// spans from locale track 0, per-locale spans such as spmspv.spa from
// every locale track) into one containment forest on the host timeline.
// The host runs the simulator single-threaded, so spans from different
// tracks never overlap partially except for the per-locale "barrier"
// spans, which are taken from track 0 only. A span's self time is its
// duration minus the part of it that its direct children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/locale_grid.hpp"

namespace perfbench {

struct HostSpan {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
};

inline pgb::CommStats operator-(const pgb::CommStats& a,
                                const pgb::CommStats& b) {
  return pgb::CommStats{a.messages - b.messages, a.bytes - b.bytes,
                        a.bulks - b.bulks, a.agg_flushes - b.agg_flushes};
}

inline pgb::CommStats& operator+=(pgb::CommStats& a, const pgb::CommStats& b) {
  a.messages += b.messages;
  a.bytes += b.bytes;
  a.bulks += b.bulks;
  a.agg_flushes += b.agg_flushes;
  return a;
}

inline bool operator==(const pgb::CommStats& a, const pgb::CommStats& b) {
  return a.messages == b.messages && a.bytes == b.bytes &&
         a.bulks == b.bulks && a.agg_flushes == b.agg_flushes;
}

/// Times and accounts every public call of one measured pass.
class CallLog {
 public:
  CallLog(pgb::LocaleGrid& grid, pgb::obs::TraceSession* session)
      : grid_(grid), session_(session) {}

  /// Runs `f` as the public call `name`; returns its host seconds.
  template <typename F>
  double run(const char* name, F&& f) {
    const pgb::CommStats c0 = grid_.comm_stats();
    const double b = session_ != nullptr ? session_->wall_now_us() : 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    if (session_ != nullptr) {
      spans_.push_back(HostSpan{name, b, session_->wall_now_us()});
    }
    comm_ += grid_.comm_stats() - c0;
    const double s = std::chrono::duration<double>(t1 - t0).count();
    host_s_[name].push_back(s);
    return s;
  }

  /// Comm moved by every call so far; must equal the grid's totals.
  const pgb::CommStats& comm() const { return comm_; }
  const std::vector<HostSpan>& spans() const { return spans_; }
  /// Host seconds of every call, by call name.
  const std::map<std::string, std::vector<double>>& host_s() const {
    return host_s_;
  }

 private:
  pgb::LocaleGrid& grid_;
  pgb::obs::TraceSession* session_;
  pgb::CommStats comm_{};
  std::vector<HostSpan> spans_;
  std::map<std::string, std::vector<double>> host_s_;
};

/// Self and total host time per span name over one traced pass.
struct SelfTimes {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  double roots_us = 0.0;  ///< summed duration of the top-level spans
  std::int64_t spans = 0;
};

/// Spans src/ opens per locale inside a coforall body, so each locale
/// track holds its own instance on the host timeline.
inline bool is_locale_span(const std::string& name) {
  static const std::set<std::string> kNames = {
      "spmspv.spa", "spmspv.sort", "spmspv.route", "spmspv.emit",
      "spmspv.output", "ktruss.round"};
  return kNames.count(name) != 0;
}

inline SelfTimes analyze(const std::vector<HostSpan>& bench,
                         const pgb::obs::TraceSession& session,
                         int num_locales) {
  std::vector<HostSpan> all = bench;
  for (const auto& s : session.spans()) {
    if (s.track >= num_locales) continue;  // per-query tracks: sim time only
    if (s.track == 0 || is_locale_span(s.name)) {
      all.push_back(HostSpan{s.name, s.wall_begin_us, s.wall_end_us});
    }
  }
  std::sort(all.begin(), all.end(), [](const HostSpan& a, const HostSpan& b) {
    return a.begin_us != b.begin_us ? a.begin_us < b.begin_us
                                    : a.end_us > b.end_us;
  });
  SelfTimes out;
  out.spans = static_cast<std::int64_t>(all.size());
  std::vector<double> child_us(all.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < all.size(); ++i) {
    while (!stack.empty() && all[stack.back()].end_us <= all[i].begin_us) {
      stack.pop_back();
    }
    const double dur = all[i].end_us - all[i].begin_us;
    if (stack.empty()) {
      out.roots_us += dur;
    } else {
      // Clamp to the parent's interval: a child can only cover time the
      // parent spans.
      const HostSpan& p = all[stack.back()];
      child_us[stack.back()] +=
          std::min(all[i].end_us, p.end_us) - all[i].begin_us;
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double dur = all[i].end_us - all[i].begin_us;
    out.self_us[all[i].name] += std::max(0.0, dur - child_us[i]);
    out.total_us[all[i].name] += dur;
  }
  return out;
}

/// Module (layer) a span belongs to. Benchmark spans carry it as their
/// prefix; src/ span names map by family.
inline std::string layer_of(const std::string& name) {
  const std::string head = name.substr(0, name.find('.'));
  if (!name.empty() && name.back() == ')') return head;
  if (head == "spmspv" || head == "assign" || head == "extract" ||
      head == "ewise" || head == "mxv") {
    return "core";
  }
  if (head == "bfs" || head == "sssp" || head == "pagerank" || head == "cc" ||
      head == "mis" || head == "ktruss") {
    return "algo";
  }
  if (head == "barrier") return "runtime";
  if (head == "recovery" || head == "replica" || head == "checkpoint" ||
      name == "ingest.replay") {
    return "fault";
  }
  if (head == "ingest") return "ingest";
  return "other";
}

}  // namespace perfbench
