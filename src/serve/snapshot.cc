#include "serve/snapshot.h"

#include "space/information_space.h"
#include "vkb/view_knowledge_base.h"

namespace eve {

namespace {

uint64_t NextEpoch() {
  // Process-unique, never 0: 0 is RelationProvider's "live space" value.
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

bool Unchanged(const RelationSnapshot& rs, const Relation& rel) {
  return rs.source_identity == rel.identity() &&
         rs.source_version == rel.version();
}

// Freezes `rel` into `rs`.  The copy shares column chunks and already-built
// index/hash caches (CoW); later mutations of the live relation clone
// instead of touching this frozen copy.
void Freeze(RelationSnapshot& rs, const Relation& rel) {
  rs.source_identity = rel.identity();
  rs.source_version = rel.version();
  rs.relation = std::make_shared<const Relation>(rel);
}

}  // namespace

SystemSnapshot::SystemSnapshot() : epoch_(NextEpoch()) {}

std::shared_ptr<SystemSnapshot> SystemSnapshot::Capture(
    const InformationSpace& space, const ViewKnowledgeBase* vkb,
    const SystemSnapshot* previous) {
  auto snap = std::shared_ptr<SystemSnapshot>(new SystemSnapshot());
  snap->CaptureRelations(space, previous);
  snap->CaptureViews(vkb, previous);
  return snap;
}

void SystemSnapshot::CaptureRelations(const InformationSpace& space,
                                      const SystemSnapshot* previous) {
  name_version_ = space.NameVersion();
  if (previous != nullptr && previous->name_version_ == name_version_) {
    // Same name shape: the walk meets previous entry i as its i-th
    // relation (checked, so a source edited behind the space's back falls
    // through to the rebuild), and only changed relations are refrozen.
    const std::vector<RelationSnapshot>& prev = *previous->relations_;
    std::vector<std::pair<size_t, const Relation*>> changed;
    size_t i = 0;
    bool same_shape = true;
    space.ForEachRelation([&](const std::string& site, const std::string& name,
                              const Relation& rel) {
      if (!same_shape) return;
      if (i >= prev.size() || prev[i].name != name || prev[i].site != site) {
        same_shape = false;
        return;
      }
      if (!Unchanged(prev[i], rel)) changed.emplace_back(i, &rel);
      ++i;
    });
    if (same_shape && i == prev.size()) {
      names_ = previous->names_;
      if (changed.empty()) {
        relations_ = previous->relations_;
        return;
      }
      auto rels = std::make_shared<std::vector<RelationSnapshot>>(prev);
      for (const auto& [idx, rel] : changed) Freeze((*rels)[idx], *rel);
      relations_ = std::move(rels);
      return;
    }
  }
  // New name shape (or no previous epoch): rebuild the table and the maps,
  // still reusing every previous entry whose source is unchanged.
  auto rels = std::make_shared<std::vector<RelationSnapshot>>();
  auto names = std::make_shared<NameMaps>();
  space.ForEachRelation([&](const std::string& site, const std::string& name,
                            const Relation& rel) {
    const RelationSnapshot* old =
        previous != nullptr ? previous->Find(site, name) : nullptr;
    const size_t idx = rels->size();
    if (old != nullptr && Unchanged(*old, rel)) {
      rels->push_back(*old);
    } else {
      RelationSnapshot rs;
      rs.site = site;
      rs.name = name;
      Freeze(rs, rel);
      rels->push_back(std::move(rs));
    }
    names->by_site[site][name] = idx;
    const auto [it, inserted] = names->by_name.emplace(name, idx);
    if (!inserted) it->second = kAmbiguous;
  });
  relations_ = std::move(rels);
  names_ = std::move(names);
}

void SystemSnapshot::CaptureViews(const ViewKnowledgeBase* vkb,
                                  const SystemSnapshot* previous) {
  if (vkb == nullptr) return;
  views_version_ = vkb->version();
  if (previous != nullptr && previous->views_ != nullptr &&
      previous->views_version_ == views_version_) {
    views_ = previous->views_;
    return;
  }
  auto views = std::make_shared<std::map<std::string, ViewDefinition>>();
  for (const std::string& name : vkb->ViewNames()) {
    const auto entry = vkb->Get(name);
    if (!entry.ok() || entry.value()->state != ViewState::kAlive) continue;
    views->emplace(name, entry.value()->definition);
  }
  views_ = std::move(views);
}

const RelationSnapshot* SystemSnapshot::Find(const std::string& site,
                                             const std::string& name) const {
  const auto sit = names_->by_site.find(site);
  if (sit == names_->by_site.end()) return nullptr;
  const auto rit = sit->second.find(name);
  if (rit == sit->second.end()) return nullptr;
  return &(*relations_)[rit->second];
}

Result<const Relation*> SystemSnapshot::Resolve(
    const std::string& site, const std::string& relation) const {
  // Error spellings mirror InformationSpace::Resolve so callers cannot
  // tell the two providers apart.
  if (!site.empty()) {
    const auto sit = names_->by_site.find(site);
    if (sit == names_->by_site.end()) {
      return Status::NotFound("no information source named " + site);
    }
    const auto rit = sit->second.find(relation);
    if (rit == sit->second.end()) {
      return Status::NotFound("relation " + relation + " not at source " +
                              site);
    }
    return (*relations_)[rit->second].relation.get();
  }
  const auto it = names_->by_name.find(relation);
  if (it == names_->by_name.end()) {
    return Status::NotFound("relation " + relation + " not in any source");
  }
  if (it->second == kAmbiguous) {
    return Status::FailedPrecondition("relation name " + relation +
                                      " is ambiguous across sites");
  }
  return (*relations_)[it->second].relation.get();
}

Result<ViewDefinition> SystemSnapshot::View(const std::string& name) const {
  if (views_ != nullptr) {
    const auto it = views_->find(name);
    if (it != views_->end()) return it->second;
  }
  return Status::NotFound("view " + name + " not alive in epoch " +
                          std::to_string(epoch_));
}

void SnapshotPublisher::Publish(std::shared_ptr<SystemSnapshot> snapshot) {
  // Single-publisher: sequence_ needs no RMW ordering games, the swap's
  // release pairs with readers' acquire loads.
  const uint64_t seq = sequence_.load(std::memory_order_relaxed) + 1;
  snapshot->sequence_ = seq;
#if defined(__SANITIZE_THREAD__)
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::shared_ptr<const SystemSnapshot>(std::move(snapshot));
  }
#else
  current_.store(std::shared_ptr<const SystemSnapshot>(std::move(snapshot)),
                 std::memory_order_release);
#endif
  sequence_.store(seq, std::memory_order_release);
  stale_.store(false, std::memory_order_release);
}

}  // namespace eve
