// InformationSpace: the collection of all registered information sources.
// It implements RelationProvider for the executor, applies schema changes
// and data updates to the hosting source, and keeps the MKB consistent with
// capability changes (the "MKB Evolver" of paper Fig. 1).

#ifndef EVE_SPACE_INFORMATION_SPACE_H_
#define EVE_SPACE_INFORMATION_SPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/provider.h"
#include "common/result.h"
#include "misd/mkb.h"
#include "space/data_update.h"
#include "space/information_source.h"
#include "space/schema_change.h"

namespace eve {

/// The multi-site information space.
class InformationSpace : public RelationProvider {
 public:
  /// Creates (or returns) the source named `site`.
  InformationSource& AddSource(const std::string& site);

  /// Registers a relation at `site` and (if `mkb` is non-null) records its
  /// capability description and statistics in the MKB.
  Status AddRelation(const std::string& site, Relation relation,
                     MetaKnowledgeBase* mkb = nullptr,
                     double local_selectivity = 1.0);

  /// Applies a capability change to the hosting source and, when `mkb` is
  /// non-null, evolves the MKB (dropping constraints that reference deleted
  /// capabilities).  Returns the number of MKB constraints dropped.
  Result<int> ApplySchemaChange(const SchemaChange& change,
                                MetaKnowledgeBase* mkb = nullptr);

  /// Applies a data update to the hosting source.
  Status ApplyDataUpdate(const DataUpdate& update);

  /// The site hosting `relation` (bare name).  Fails if absent/ambiguous.
  Result<std::string> SiteOf(const std::string& relation) const;

  /// Bare relation name -> hosting site for every relation in the space,
  /// in site order (a later site wins a duplicate name, mirroring the
  /// historical per-change rescan).  Cached against NameVersion(): rebuilt
  /// only after a mutation that can change the name shape, so a long
  /// evolution stream pays one rebuild per add/drop/rename-relation instead
  /// of one full rescan per change of any kind.  The returned snapshot is
  /// immutable and safe to hold across later mutations.
  std::shared_ptr<const std::map<std::string, std::string>> RelationSiteMap()
      const;

  /// Monotonic stamp of the space's name shape (which relations exist
  /// where).  Bumped by AddSource/AddRelation and by ApplySchemaChange for
  /// relation-level changes; attribute-level changes and data updates keep
  /// it (and the site-map cache) intact.
  uint64_t NameVersion() const { return name_version_; }

  bool HasSource(const std::string& site) const;
  Result<const InformationSource*> GetSource(const std::string& site) const;
  Result<InformationSource*> GetMutableSource(const std::string& site);

  /// Sorted site names.
  std::vector<std::string> SiteNames() const;

  /// Calls fn(site, name, relation) for every relation in (site, name)
  /// order, without allocating.
  template <typename Fn>
  void ForEachRelation(Fn&& fn) const {
    for (const auto& [site, source] : sources_) {
      source.ForEachRelation(
          [&](const std::string& name, const Relation& rel) {
            fn(site, name, rel);
          });
    }
  }

  // RelationProvider:
  Result<const Relation*> Resolve(const std::string& site,
                                  const std::string& relation) const override;

 private:
  std::map<std::string, InformationSource> sources_;
  uint64_t name_version_ = 1;
  // Lazily built site map, valid while site_map_version_ == name_version_.
  // The mutex only guards the cache slot: mutators follow the space's
  // single-writer contract, but concurrent const readers may race to
  // (re)build the map.
  mutable std::mutex site_map_mu_;
  mutable std::shared_ptr<const std::map<std::string, std::string>> site_map_;
  mutable uint64_t site_map_version_ = 0;
};

}  // namespace eve

#endif  // EVE_SPACE_INFORMATION_SPACE_H_
