#include "net/metrics.hpp"

#include <cstdio>
#include <string>
#include <string_view>

#include "service/latency_histogram.hpp"
#include "service/priority.hpp"
#include "support/trace.hpp"

namespace msptrsv::net {

namespace {

using service::LatencyHistogram;
using service::LatencyHistogramSnapshot;

/// `{instance="..."}` or `{instance="...",extra}` or "" / `{extra}`.
std::string label_set(const std::string& instance, std::string_view extra) {
  if (instance.empty() && extra.empty()) return "";
  std::string out = "{";
  if (!instance.empty()) {
    out += "instance=\"" + instance + "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

void counter(std::string& out, std::string_view name, std::string_view help,
             const std::string& labels, std::uint64_t value) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " counter\n";
  out += name;
  out += labels;
  out += " ";
  out += std::to_string(value);
  out += "\n";
}

void gauge(std::string& out, std::string_view name, std::string_view help,
           const std::string& labels, std::uint64_t value) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " gauge\n";
  out += name;
  out += labels;
  out += " ";
  out += std::to_string(value);
  out += "\n";
}

/// One classic cumulative histogram. Bucket edges come from the HDR
/// bucket ceilings (exact integers, rendered in seconds), emitted only
/// for buckets that hold samples -- the log-linear layout has 1248
/// buckets and a Prometheus page does not want the empty ones.
void histogram(std::string& out, std::string_view name,
               std::string_view help, const std::string& instance,
               std::string_view extra_labels,
               const LatencyHistogramSnapshot& h) {
  out += "# HELP ";
  out += name;
  out += " ";
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    cumulative += h.counts[i];
    // le edges are the bucket CEILINGS: every sample in bucket i is
    // <= ceil(i) by construction, so cumulative counts are exact.
    const double le_s =
        static_cast<double>(LatencyHistogram::bucket_ceil(i)) * 1e-6;
    char le[32];
    std::snprintf(le, sizeof(le), "%.9g", le_s);
    std::string labels = std::string(extra_labels);
    if (!labels.empty()) labels += ",";
    labels += "le=\"";
    labels += le;
    labels += "\"";
    out += name;
    out += "_bucket";
    out += label_set(instance, labels);
    out += " ";
    out += std::to_string(cumulative);
    out += "\n";
  }
  {
    std::string labels = std::string(extra_labels);
    if (!labels.empty()) labels += ",";
    labels += "le=\"+Inf\"";
    out += name;
    out += "_bucket";
    out += label_set(instance, labels);
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
  }
  char sum[40];
  std::snprintf(sum, sizeof(sum), "%.9g",
                static_cast<double>(h.sum_us) * 1e-6);
  out += name;
  out += "_sum";
  out += label_set(instance, extra_labels);
  out += " ";
  out += sum;
  out += "\n";
  out += name;
  out += "_count";
  out += label_set(instance, extra_labels);
  out += " ";
  out += std::to_string(h.count);
  out += "\n";
}

}  // namespace

std::string render_prometheus(const WireStats& s,
                              const std::string& instance) {
  const std::string base = label_set(instance, "");
  std::string out;
  out.reserve(4096);

  counter(out, "msptrsv_rhs_submitted_total",
          "Right-hand sides admitted past backpressure.", base, s.submitted);
  counter(out, "msptrsv_rhs_completed_total",
          "Right-hand sides answered successfully.", base, s.completed);
  counter(out, "msptrsv_rhs_failed_total",
          "Right-hand sides answered with an error.", base, s.failed);
  counter(out, "msptrsv_rhs_rejected_total",
          "Right-hand sides refused with overloaded.", base, s.rejected);
  counter(out, "msptrsv_rhs_shed_total",
          "Right-hand sides shed past their deadline.", base, s.shed);
  counter(out, "msptrsv_batches_total", "Fused solve_batch dispatches.",
          base, s.batches);
  counter(out, "msptrsv_coalesced_rhs_total",
          "Right-hand sides that shared a fused dispatch.", base,
          s.coalesced_rhs);
  gauge(out, "msptrsv_queue_depth", "Pending right-hand sides.", base,
        s.queue_depth);
  gauge(out, "msptrsv_peak_queue_depth",
        "High-water mark of pending right-hand sides.", base,
        s.peak_queue_depth);
  counter(out, "msptrsv_connections_accepted_total",
          "Connections the server has accepted.", base,
          s.connections_accepted);
  gauge(out, "msptrsv_connections_active", "Connections open right now.",
        base, s.connections_active);
  counter(out, "msptrsv_frames_received_total",
          "Well-formed frames decoded off the wire.", base,
          s.frames_received);
  counter(out, "msptrsv_protocol_errors_total",
          "Connections fail-stopped on a malformed frame.", base,
          s.protocol_errors);
  gauge(out, "msptrsv_plans_open", "Plans open in the server's table.",
        base, s.plans_open);

  histogram(out, "msptrsv_solve_latency_seconds",
            "Submit-to-completion solve latency.", instance, "",
            s.latency);

  // Per-class series share a metric name, so HELP/TYPE is emitted once
  // and the three class series follow (Prometheus requires exactly this).
  const auto class_label = [&](std::size_t c) {
    return "class=\"" +
           std::string(service::to_string(static_cast<service::Priority>(c))) +
           "\"";
  };
  const auto class_counter = [&](std::string_view name,
                                 std::string_view help, auto field) {
    out += "# HELP ";
    out += name;
    out += " ";
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " counter\n";
    for (std::size_t c = 0; c < s.per_class.size(); ++c) {
      out += name;
      out += label_set(instance, class_label(c));
      out += " ";
      out += std::to_string(field(s.per_class[c]));
      out += "\n";
    }
  };
  class_counter("msptrsv_class_rhs_submitted_total",
                "Per-priority-class right-hand sides admitted.",
                [](const WireStats::PerClass& pc) { return pc.submitted; });
  class_counter("msptrsv_class_rhs_completed_total",
                "Per-priority-class right-hand sides completed.",
                [](const WireStats::PerClass& pc) { return pc.completed; });
  class_counter("msptrsv_class_rhs_shed_total",
                "Per-priority-class right-hand sides shed.",
                [](const WireStats::PerClass& pc) { return pc.shed; });
  out +=
      "# HELP msptrsv_class_solve_latency_seconds Per-priority-class solve "
      "latency.\n# TYPE msptrsv_class_solve_latency_seconds histogram\n";
  for (std::size_t c = 0; c < s.per_class.size(); ++c) {
    LatencyHistogramSnapshot h = s.per_class[c].latency;
    // Re-use histogram() body minus the header: inline the series here.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      cumulative += h.counts[i];
      const double le_s =
          static_cast<double>(LatencyHistogram::bucket_ceil(i)) * 1e-6;
      char le[32];
      std::snprintf(le, sizeof(le), "%.9g", le_s);
      out += "msptrsv_class_solve_latency_seconds_bucket";
      out += label_set(instance,
                       class_label(c) + ",le=\"" + le + "\"");
      out += " ";
      out += std::to_string(cumulative);
      out += "\n";
    }
    out += "msptrsv_class_solve_latency_seconds_bucket";
    out += label_set(instance, class_label(c) + ",le=\"+Inf\"");
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
    char sum[40];
    std::snprintf(sum, sizeof(sum), "%.9g",
                  static_cast<double>(h.sum_us) * 1e-6);
    out += "msptrsv_class_solve_latency_seconds_sum";
    out += label_set(instance, class_label(c));
    out += " ";
    out += sum;
    out += "\n";
    out += "msptrsv_class_solve_latency_seconds_count";
    out += label_set(instance, class_label(c));
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
  }

  // ---- plan cache ------------------------------------------------------------
  counter(out, "msptrsv_plan_cache_hits_total",
          "Plan-cache lookups answered from memory.", base, s.cache_hits);
  counter(out, "msptrsv_plan_cache_misses_total",
          "Plan-cache lookups that paid a symbolic analysis.", base,
          s.cache_misses);
  counter(out, "msptrsv_plan_cache_evictions_total",
          "Plans evicted by the count capacity.", base, s.cache_evictions);
  counter(out, "msptrsv_plan_cache_byte_evictions_total",
          "Plans evicted by the byte budget.", base, s.cache_byte_evictions);
  counter(out, "msptrsv_plan_cache_disk_hits_total",
          "Plan-cache misses warmed from the blob directory.", base,
          s.cache_disk_hits);
  counter(out, "msptrsv_plan_cache_disk_stores_total",
          "Analyzed plans persisted to the blob directory.", base,
          s.cache_disk_stores);

  // ---- per-phase latency attribution ----------------------------------------
  // The seven phases (support/trace.hpp) partition each reply's latency:
  // queue/coalesce/claim/pack/kernel/unpack measured by the service and
  // core layers, reply by the server thread that writes it. One histogram
  // family with a phase label, plus a pre-digested summary family for
  // dashboards that want quantiles without a histogram_quantile() query.
  const auto phase_label = [](std::size_t p) {
    return "phase=\"" + std::string(support::trace::kPhaseNames[p]) + "\"";
  };
  out += "# HELP msptrsv_solve_phase_seconds Per-phase share of solve "
         "latency (phases partition the solve).\n"
         "# TYPE msptrsv_solve_phase_seconds histogram\n";
  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const LatencyHistogramSnapshot& h = s.phases[p];
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      cumulative += h.counts[i];
      const double le_s =
          static_cast<double>(LatencyHistogram::bucket_ceil(i)) * 1e-6;
      char le[32];
      std::snprintf(le, sizeof(le), "%.9g", le_s);
      out += "msptrsv_solve_phase_seconds_bucket";
      out += label_set(instance, phase_label(p) + ",le=\"" + le + "\"");
      out += " ";
      out += std::to_string(cumulative);
      out += "\n";
    }
    out += "msptrsv_solve_phase_seconds_bucket";
    out += label_set(instance, phase_label(p) + ",le=\"+Inf\"");
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
    char sum[40];
    std::snprintf(sum, sizeof(sum), "%.9g",
                  static_cast<double>(h.sum_us) * 1e-6);
    out += "msptrsv_solve_phase_seconds_sum";
    out += label_set(instance, phase_label(p));
    out += " ";
    out += sum;
    out += "\n";
    out += "msptrsv_solve_phase_seconds_count";
    out += label_set(instance, phase_label(p));
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
  }
  out += "# HELP msptrsv_solve_phase_summary_seconds Per-phase latency "
         "quantiles (p50/p90/p99 from the HDR buckets).\n"
         "# TYPE msptrsv_solve_phase_summary_seconds summary\n";
  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const LatencyHistogramSnapshot& h = s.phases[p];
    for (const double q : {0.5, 0.9, 0.99}) {
      char qs[16], vs[40];
      std::snprintf(qs, sizeof(qs), "%g", q);
      std::snprintf(vs, sizeof(vs), "%.9g", h.quantile(q) * 1e-6);
      out += "msptrsv_solve_phase_summary_seconds";
      out += label_set(instance,
                       phase_label(p) + ",quantile=\"" + qs + "\"");
      out += " ";
      out += vs;
      out += "\n";
    }
    char sum[40];
    std::snprintf(sum, sizeof(sum), "%.9g",
                  static_cast<double>(h.sum_us) * 1e-6);
    out += "msptrsv_solve_phase_summary_seconds_sum";
    out += label_set(instance, phase_label(p));
    out += " ";
    out += sum;
    out += "\n";
    out += "msptrsv_solve_phase_summary_seconds_count";
    out += label_set(instance, phase_label(p));
    out += " ";
    out += std::to_string(h.count);
    out += "\n";
  }
  return out;
}

}  // namespace msptrsv::net
