// InformationSource: one autonomous site hosting relations.  Sources accept
// schema changes and data updates; the space-level wrapper forwards
// notifications to EVE (paper Fig. 1: ISs + wrappers).

#ifndef EVE_SPACE_INFORMATION_SOURCE_H_
#define EVE_SPACE_INFORMATION_SOURCE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "space/data_update.h"
#include "storage/relation.h"

namespace eve {

/// One information source (site).
class InformationSource {
 public:
  explicit InformationSource(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a relation (schema + data).  Fails on duplicate names.
  Status AddRelation(Relation relation);

  /// Drops a relation.
  Status DropRelation(const std::string& relation);

  /// Renames a relation.
  Status RenameRelation(const std::string& from, const std::string& to);

  /// Drops an attribute (column) from a relation, projecting the data.
  Status DropAttribute(const std::string& relation, const std::string& attribute);

  /// Adds an attribute with NULL values for existing tuples.
  Status AddAttribute(const std::string& relation, const Attribute& attribute);

  /// Renames an attribute.
  Status RenameAttribute(const std::string& relation, const std::string& from,
                         const std::string& to);

  /// Applies a data update (insert or delete).
  Status Apply(const DataUpdate& update);

  bool HasRelation(const std::string& relation) const;
  Result<const Relation*> GetRelation(const std::string& relation) const;
  Result<Relation*> GetMutableRelation(const std::string& relation);

  /// Relation names hosted here (sorted).
  std::vector<std::string> RelationNames() const;

  /// Calls fn(name, relation) for every hosted relation in name order,
  /// without allocating (snapshot capture walks the space with it).
  template <typename Fn>
  void ForEachRelation(Fn&& fn) const {
    for (const auto& [name, rel] : relations_) fn(name, rel);
  }

 private:
  std::string name_;
  std::map<std::string, Relation> relations_;
};

}  // namespace eve

#endif  // EVE_SPACE_INFORMATION_SOURCE_H_
