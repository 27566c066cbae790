#include "synch/rewriting.h"

#include "common/str_util.h"
#include "esql/printer.h"

namespace eve {

bool Rewriting::IsPureRename() const {
  return strategy == "rename" && replacements.empty() &&
         dropped_attributes.empty() && dropped_conditions.empty();
}

std::string Rewriting::Summary() const {
  std::string out = "[" + strategy + ", extent " +
                    std::string(ExtentRelToString(extent_relation)) +
                    (extent_exact ? "" : " (approx)") + "] " +
                    PrintViewCompact(definition);
  for (const ReplacementRecord& r : replacements) {
    out += StrFormat("\n    replaced %s by %s%s via %s",
                     r.replaced.ToString().c_str(),
                     r.replacement.ToString().c_str(),
                     r.joined_in ? " (joined in)" : "",
                     r.edge.constraint_text.c_str());
  }
  if (!dropped_attributes.empty()) {
    out += "\n    dropped attributes: " + Join(dropped_attributes, ", ");
  }
  if (!dropped_conditions.empty()) {
    out += "\n    dropped conditions: " + Join(dropped_conditions, ", ");
  }
  return out;
}

}  // namespace eve
