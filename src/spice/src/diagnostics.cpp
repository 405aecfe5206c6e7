#include "nemsim/spice/diagnostics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace nemsim::spice {

namespace {

/// Largest histogram size; solves at/above this land in the last bucket.
constexpr std::size_t kHistogramBuckets = 64;

const char* stage_kind_name(SteppingStageRecord::Kind kind) {
  switch (kind) {
    case SteppingStageRecord::Kind::kPlain: return "plain";
    case SteppingStageRecord::Kind::kGminStep: return "gmin";
    case SteppingStageRecord::Kind::kSourceStep: return "source";
  }
  return "?";
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// {"bucket": count, ...} of a per-bucket NewtonStats counter.
void json_bucket_counts(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
  os << "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << (i ? ", " : "");
    json_escape(os, counts[i].first);
    os << ": " << counts[i].second;
  }
  os << "}";
}

}  // namespace

void RunReport::record_newton_iterations(int iterations) {
  if (iterations < 0) return;
  const std::size_t bucket =
      std::min<std::size_t>(static_cast<std::size_t>(iterations),
                            kHistogramBuckets - 1);
  if (newton_iteration_histogram.size() <= bucket) {
    newton_iteration_histogram.resize(bucket + 1, 0);
  }
  ++newton_iteration_histogram[bucket];
}

void RunReport::add_note(const std::string& note) {
  if (notes.size() < kMaxRecords) notes.push_back(note);
}

std::size_t RunReport::stage_count(SteppingStageRecord::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(stages.begin(), stages.end(),
                    [kind](const SteppingStageRecord& s) {
                      return s.kind == kind;
                    }));
}

int RunReport::stage_iterations_total() const {
  int total = 0;
  for (const SteppingStageRecord& s : stages) total += s.iterations;
  return total;
}

std::vector<std::pair<std::string, std::size_t>>
RunReport::top_refactor_rejects(std::size_t k) const {
  std::vector<std::pair<std::string, std::size_t>> counts;
  for (const RefactorRejectRecord& r : newton.refactor_rejects) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& c) { return c.first == r.name; });
    if (it == counts.end()) {
      counts.emplace_back(r.name, 1);
    } else {
      ++it->second;
    }
  }
  std::stable_sort(counts.begin(), counts.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (counts.size() > k) counts.resize(k);
  return counts;
}

void RunReport::reset() {
  analysis.clear();
  newton = NewtonStats{};
  stages.clear();
  newton_iteration_histogram.clear();
  accepted_steps = 0;
  newton_failures = 0;
  lte_reject_count = 0;
  min_dt = 0.0;
  max_dt = 0.0;
  lte_rejects.clear();
  step_failures.clear();
  points = 0;
  failed_points = 0;
  notes.clear();
  lint_findings.clear();
  analyze_findings.clear();
  metrics.clear();
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << "RunReport[" << (analysis.empty() ? "?" : analysis) << "]"
     << " newton_total_iters=" << newton.total_iterations
     << " assembles=" << newton.assembles
     << " factorizations=" << newton.factorizations
     << " reuses=" << newton.factorization_reuses
     << (newton.used_sparse ? " sparse" : " dense");
  if (newton.refactor_rejections > 0) {
    os << " refactor_rejections=" << newton.refactor_rejections << "[";
    const auto top = top_refactor_rejects();
    for (std::size_t i = 0; i < top.size(); ++i) {
      os << (i ? " " : "") << top[i].first << "=" << top[i].second;
    }
    os << "]";
  }
  const auto bucket_block =
      [&os](const char* label,
            const std::vector<std::pair<std::string, std::uint64_t>>& v) {
        if (v.empty()) return;
        os << " " << label << "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
          os << (i ? " " : "") << v[i].first << "=" << v[i].second;
        }
        os << "]";
      };
  bucket_block("kernels", newton.kernel_lane_evals);
  bucket_block("twin_replays", newton.twin_replays);
  if (newton.twin_rekeys > 0 || newton.shared_accepts > 0) {
    os << " twin_rekeys=" << newton.twin_rekeys
       << " shared_accepts=" << newton.shared_accepts;
  }
  if (!stages.empty()) {
    os << " stages[plain=" << stage_count(SteppingStageRecord::Kind::kPlain)
       << " gmin=" << stage_count(SteppingStageRecord::Kind::kGminStep)
       << " source=" << stage_count(SteppingStageRecord::Kind::kSourceStep)
       << "]";
  }
  if (accepted_steps > 0 || newton_failures > 0 || lte_reject_count > 0) {
    os << " steps=" << accepted_steps
       << " newton_failures=" << newton_failures
       << " lte_rejects=" << lte_reject_count
       << " dt=[" << min_dt << "," << max_dt << "]";
  }
  if (points > 0) {
    os << " points=" << points << " failed=" << failed_points;
  }
  const auto findings_block = [&os](const char* label,
                                    const std::vector<lint::LintFinding>& v) {
    if (v.empty()) return;
    std::size_t errors = 0, warnings = 0, hints = 0;
    for (const auto& f : v) {
      switch (f.severity) {
        case lint::LintSeverity::kError: ++errors; break;
        case lint::LintSeverity::kWarning: ++warnings; break;
        case lint::LintSeverity::kHint: ++hints; break;
      }
    }
    os << " " << label << "[errors=" << errors << " warnings=" << warnings
       << " hints=" << hints << "]";
  };
  findings_block("lint", lint_findings);
  findings_block("analyze", analyze_findings);
  for (const auto& [name, entry] : metrics.snapshot()) {
    os << " " << name << "=";
    if (entry.seconds > 0.0) {
      os << entry.seconds << "s";
    } else {
      os << entry.count;
    }
  }
  os << "\n";
  return os.str();
}

void RunReport::write_json(std::ostream& os) const {
  const auto saved_precision = os.precision(15);
  os << "{\n  \"analysis\": ";
  json_escape(os, analysis);
  os << ",\n  \"newton\": {"
     << "\"iterations\": " << newton.iterations
     << ", \"total_iterations\": " << newton.total_iterations
     << ", \"gmin_steps\": " << newton.gmin_steps
     << ", \"source_steps\": " << newton.source_steps
     << ", \"assembles\": " << newton.assembles
     << ", \"residual_assembles\": " << newton.residual_assembles
     << ", \"factorizations\": " << newton.factorizations
     << ", \"factorization_reuses\": " << newton.factorization_reuses
     << ", \"refactor_rejections\": " << newton.refactor_rejections
     << ", \"nonlinear_evals\": " << newton.nonlinear_evals
     << ", \"used_sparse\": " << (newton.used_sparse ? "true" : "false")
     << ", \"kernel_lane_evals\": ";
  json_bucket_counts(os, newton.kernel_lane_evals);
  os << ", \"twin_replays\": ";
  json_bucket_counts(os, newton.twin_replays);
  os << ", \"twin_rekeys\": " << newton.twin_rekeys
     << ", \"shared_accepts\": " << newton.shared_accepts << "}";

  os << ",\n  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const SteppingStageRecord& s = stages[i];
    os << (i ? ", " : "") << "{\"kind\": \"" << stage_kind_name(s.kind)
       << "\", \"value\": " << s.value
       << ", \"iterations\": " << s.iterations
       << ", \"converged\": " << (s.converged ? "true" : "false") << "}";
  }
  os << "]";

  os << ",\n  \"newton_iteration_histogram\": [";
  for (std::size_t i = 0; i < newton_iteration_histogram.size(); ++i) {
    os << (i ? ", " : "") << newton_iteration_histogram[i];
  }
  os << "]";

  os << ",\n  \"transient\": {"
     << "\"accepted_steps\": " << accepted_steps
     << ", \"newton_failures\": " << newton_failures
     << ", \"lte_rejects\": " << lte_reject_count
     << ", \"min_dt\": " << min_dt << ", \"max_dt\": " << max_dt << "}";

  os << ",\n  \"lte_reject_locations\": [";
  for (std::size_t i = 0; i < lte_rejects.size(); ++i) {
    const LteRejectRecord& r = lte_rejects[i];
    os << (i ? ", " : "") << "{\"time\": " << r.time << ", \"dt\": " << r.dt
       << ", \"ratio\": " << r.ratio << ", \"worst\": ";
    json_escape(os, r.worst_name);
    os << "}";
  }
  os << "]";

  os << ",\n  \"refactor_reject_top\": [";
  const auto top = top_refactor_rejects();
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": ";
    json_escape(os, top[i].first);
    os << ", \"count\": " << top[i].second << "}";
  }
  os << "]";

  os << ",\n  \"refactor_reject_locations\": [";
  for (std::size_t i = 0; i < newton.refactor_rejects.size(); ++i) {
    const RefactorRejectRecord& r = newton.refactor_rejects[i];
    os << (i ? ", " : "") << "{\"time\": " << r.time
       << ", \"unknown\": " << r.unknown << ", \"name\": ";
    json_escape(os, r.name);
    os << "}";
  }
  os << "]";

  os << ",\n  \"step_failures\": [";
  for (std::size_t i = 0; i < step_failures.size(); ++i) {
    const StepFailureRecord& r = step_failures[i];
    os << (i ? ", " : "") << "{\"time\": " << r.time << ", \"dt\": " << r.dt
       << ", \"message\": ";
    json_escape(os, r.message);
    os << "}";
  }
  os << "]";

  os << ",\n  \"points\": " << points
     << ",\n  \"failed_points\": " << failed_points;

  os << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "");
    json_escape(os, notes[i]);
  }
  os << "]";

  os << ",\n  \"lint_findings\": ";
  write_findings_json(os, lint_findings);
  os << ",\n  \"analyze_findings\": ";
  write_findings_json(os, analyze_findings);

  os << ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.snapshot()) {
    os << (first ? "" : ", ");
    first = false;
    json_escape(os, name);
    os << ": {\"count\": " << entry.count
       << ", \"seconds\": " << entry.seconds << "}";
  }
  os << "}\n}\n";
  os.precision(saved_precision);
}

void write_findings_json(std::ostream& os,
                         const std::vector<lint::LintFinding>& findings) {
  os << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const lint::LintFinding& f = findings[i];
    os << (i ? ", " : "") << "{\"severity\": \""
       << lint::lint_severity_name(f.severity) << "\", \"rule\": ";
    json_escape(os, f.rule);
    os << ", \"subject\": ";
    json_escape(os, f.subject);
    os << ", \"message\": ";
    json_escape(os, f.message);
    os << "}";
  }
  os << "]";
}

}  // namespace nemsim::spice
