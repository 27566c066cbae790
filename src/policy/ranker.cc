#include "policy/ranker.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/str_util.h"
#include "qc/quality.h"
#include "qc/ranking.h"

namespace eve {

const std::vector<std::string>& CandidateFeatures::Names() {
  static const std::vector<std::string> kNames = {
      "dd",           "dd_attr",      "dd_ext",
      "q_rewriting",  "exact",        "weighted_cost",
      "estimated_size", "ops",        "drops",
      "replacements", "added_conditions", "pc_hops_max",
      "pc_hops_total", "select_size", "from_size",
      "where_size",
  };
  return kNames;
}

std::vector<double> CandidateFeatures::ToVector() const {
  return {dd,          dd_attr,        dd_ext,        q_rewriting,
          exact,       weighted_cost,  estimated_size, ops,
          drops,       replacements,   added_conditions, pc_hops_max,
          pc_hops_total, select_size,  from_size,     where_size};
}

std::string CandidateFeatures::ToString() const {
  const std::vector<double> values = ToVector();
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%s=%g", Names()[i].c_str(), values[i]);
  }
  out += "}";
  return out;
}

Result<CandidateFeatures> ExtractCandidateFeatures(
    const ViewDefinition& original, const RewriteCandidate& candidate,
    const MetaKnowledgeBase& mkb, const QcParameters& params,
    const CostModelOptions& cost_options, const WorkloadOptions& workload) {
  CandidateFeatures f;
  const DeltaView view = candidate.View();

  EVE_ASSIGN_OR_RETURN(const QualityBreakdown quality,
                       EstimateQuality(original, candidate, view, mkb, params));
  f.dd = quality.dd;
  f.dd_attr = quality.dd_attr;
  f.dd_ext = quality.dd_ext;
  f.q_rewriting = quality.q_rewriting;
  f.exact = quality.exact ? 1 : 0;

  EVE_ASSIGN_OR_RETURN(const ViewCostInput cost_input,
                       BuildCostInput(view, mkb, candidate.renamed_relation_ids));
  EVE_ASSIGN_OR_RETURN(const WorkloadCost cost,
                       ComputeWorkloadCost(cost_input, workload, cost_options));
  f.weighted_cost = cost.Weighted(params);
  EVE_ASSIGN_OR_RETURN(
      f.estimated_size,
      EstimateViewSize(view, mkb, candidate.renamed_relation_ids));

  f.ops = static_cast<double>(candidate.ops.size());
  for (const RewriteDelta& op : candidate.ops) {
    switch (op.kind) {
      case RewriteDelta::Kind::kDropSelect:
      case RewriteDelta::Kind::kDropCondition:
      case RewriteDelta::Kind::kDropFrom:
        f.drops += 1;
        break;
      case RewriteDelta::Kind::kAddCondition:
        f.added_conditions += 1;
        break;
      default:
        break;
    }
  }

  f.replacements = static_cast<double>(candidate.replacements.size());
  for (const CandidateReplacement& r : candidate.replacements) {
    if (r.edge == nullptr) continue;
    f.pc_hops_total += r.edge->hops;
    f.pc_hops_max = std::max(f.pc_hops_max, static_cast<double>(r.edge->hops));
  }

  f.select_size = view.select_size();
  f.from_size = view.from_size();
  f.where_size = view.where_size();
  return f;
}

// --- QcRanker --------------------------------------------------------------

QcRanker::QcRanker(QcParameters params, CostModelOptions cost_options,
                   WorkloadOptions workload)
    : params_(std::move(params)),
      cost_options_(std::move(cost_options)),
      workload_(std::move(workload)) {}

Result<std::vector<double>> QcRanker::Score(
    const ViewDefinition& original,
    const std::vector<RewriteCandidate>& candidates,
    const MetaKnowledgeBase& mkb) const {
  std::vector<double> dds, costs;
  dds.reserve(candidates.size());
  costs.reserve(candidates.size());
  for (const RewriteCandidate& c : candidates) {
    const DeltaView view = c.View();
    EVE_ASSIGN_OR_RETURN(const QualityBreakdown quality,
                         EstimateQuality(original, c, view, mkb, params_));
    EVE_ASSIGN_OR_RETURN(const ViewCostInput input,
                         BuildCostInput(view, mkb, c.renamed_relation_ids));
    EVE_ASSIGN_OR_RETURN(const WorkloadCost cost,
                         ComputeWorkloadCost(input, workload_, cost_options_));
    dds.push_back(quality.dd);
    costs.push_back(cost.Weighted(params_));
  }
  const std::vector<double> normalized = NormalizeCosts(costs);
  std::vector<double> scores(candidates.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] =
        1.0 - (params_.rho_quality * dds[i] + params_.rho_cost * normalized[i]);
  }
  return scores;
}

// --- LinearRanker ----------------------------------------------------------

LinearRanker::LinearRanker(double bias, std::map<std::string, double> weights,
                           QcParameters params, CostModelOptions cost_options,
                           WorkloadOptions workload)
    : bias_(bias),
      weights_(std::move(weights)),
      params_(std::move(params)),
      cost_options_(std::move(cost_options)),
      workload_(std::move(workload)) {}

namespace {

// A minimal parser for the flat weight object {"name": number, ...}.
// Deliberately strict: no nesting, arrays, strings, booleans, or nulls.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  Result<std::map<std::string, double>> Parse() {
    std::map<std::string, double> out;
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) {
      SkipSpace();
      return AtEnd() ? Result<std::map<std::string, double>>(std::move(out))
                     : Error("trailing characters after '}'");
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return Error("expected a quoted key");
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      double value = 0;
      if (!ParseNumber(&value)) {
        return Error(StrFormat("expected a number for key \"%s\"",
                               key.c_str()));
      }
      if (!out.emplace(std::move(key), value).second) {
        return Error("duplicate key");
      }
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    SkipSpace();
    if (!AtEnd()) return Error("trailing characters after '}'");
    return out;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (!AtEnd() && Peek() != '"') {
      if (Peek() == '\\') return false;  // Escapes never appear in keys.
      out->push_back(Peek());
      ++pos_;
    }
    return Consume('"');
  }
  bool ParseNumber(double* out) {
    const size_t start = pos_;
    while (!AtEnd() &&
           (std::isdigit(static_cast<unsigned char>(Peek())) || Peek() == '-' ||
            Peek() == '+' || Peek() == '.' || Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(
        StrFormat("ranker weights: %s at offset %zu", message.c_str(), pos_));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<LinearRanker> LinearRanker::FromJson(std::string_view json) {
  EVE_ASSIGN_OR_RETURN(auto raw, FlatJsonParser(json).Parse());
  double bias = 0;
  if (auto it = raw.find("bias"); it != raw.end()) {
    bias = it->second;
    raw.erase(it);
  }
  const std::vector<std::string>& names = CandidateFeatures::Names();
  for (const auto& [key, value] : raw) {
    (void)value;
    if (std::find(names.begin(), names.end(), key) == names.end()) {
      return Status::InvalidArgument(
          StrFormat("ranker weights: unknown feature \"%s\"", key.c_str()));
    }
  }
  return LinearRanker(bias, std::move(raw), QcParameters{}, CostModelOptions{},
                      WorkloadOptions{});
}

Result<LinearRanker> LinearRanker::FromJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(
        StrFormat("ranker weights: cannot read %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJson(buffer.str());
}

Result<std::vector<double>> LinearRanker::Score(
    const ViewDefinition& original,
    const std::vector<RewriteCandidate>& candidates,
    const MetaKnowledgeBase& mkb) const {
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (const RewriteCandidate& c : candidates) {
    EVE_ASSIGN_OR_RETURN(
        const CandidateFeatures features,
        ExtractCandidateFeatures(original, c, mkb, params_, cost_options_,
                                 workload_));
    double score = bias_;
    const std::vector<double> values = features.ToVector();
    const std::vector<std::string>& names = CandidateFeatures::Names();
    for (size_t i = 0; i < names.size(); ++i) {
      if (auto it = weights_.find(names[i]); it != weights_.end()) {
        score += it->second * values[i];
      }
    }
    scores.push_back(score);
  }
  return scores;
}

}  // namespace eve
