#include "vkb/view_knowledge_base.h"

#include <atomic>

#include "esql/printer.h"

namespace eve {

uint64_t ViewKnowledgeBase::NextVersion() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::string_view ViewStateToString(ViewState state) {
  switch (state) {
    case ViewState::kAlive:
      return "alive";
    case ViewState::kAffected:
      return "affected";
    case ViewState::kDead:
      return "dead";
  }
  return "?";
}

Status ViewKnowledgeBase::Define(ViewDefinition definition) {
  EVE_RETURN_IF_ERROR(definition.Validate());
  const std::string name = definition.name;
  if (views_.count(name) > 0) {
    return Status::AlreadyExists("view " + name + " already defined");
  }
  ViewEntry entry;
  entry.definition = std::move(definition);
  views_.emplace(name, std::move(entry));
  Touch();
  return Status::OK();
}

Status ViewKnowledgeBase::Drop(const std::string& name) {
  if (views_.erase(name) == 0) {
    return Status::NotFound("view " + name + " not defined");
  }
  Touch();
  return Status::OK();
}

Result<const ViewEntry*> ViewKnowledgeBase::Get(const std::string& name) const {
  const auto it = views_.find(name);
  if (it == views_.end()) return Status::NotFound("view " + name + " not defined");
  return &it->second;
}

Result<ViewEntry*> ViewKnowledgeBase::GetMutable(const std::string& name) {
  const auto it = views_.find(name);
  if (it == views_.end()) return Status::NotFound("view " + name + " not defined");
  return &it->second;
}

std::vector<std::string> ViewKnowledgeBase::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [name, entry] : views_) out.push_back(name);
  return out;
}

std::vector<std::string> ViewKnowledgeBase::ViewsReferencing(
    const RelationId& id,
    const std::map<std::string, std::string>& site_of) const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : views_) {
    if (entry.state == ViewState::kDead) continue;
    for (const FromItem& f : entry.definition.from_items) {
      if (f.relation != id.relation) continue;
      std::string site = f.site;
      if (site.empty()) {
        const auto it = site_of.find(f.relation);
        if (it != site_of.end()) site = it->second;
      }
      if (site.empty() || site == id.site) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

Status ViewKnowledgeBase::SetExtent(const std::string& name, Relation extent) {
  EVE_ASSIGN_OR_RETURN(ViewEntry * entry, GetMutable(name));
  entry->extent = std::move(extent);
  entry->materialized = true;
  return Status::OK();
}

Status ViewKnowledgeBase::ReplaceDefinition(const std::string& name,
                                            ViewDefinition new_def,
                                            const std::string& trigger,
                                            bool keep_extent) {
  EVE_RETURN_IF_ERROR(new_def.Validate());
  EVE_ASSIGN_OR_RETURN(ViewEntry * entry, GetMutable(name));
  EvolutionRecord record;
  record.trigger = trigger;
  record.old_version = PrintViewCompact(entry->definition);
  record.new_version = PrintViewCompact(new_def);
  entry->history.push_back(std::move(record));
  entry->definition = std::move(new_def);
  entry->state = ViewState::kAlive;
  if (!keep_extent) entry->materialized = false;
  Touch();
  return Status::OK();
}

Status ViewKnowledgeBase::MarkDead(const std::string& name,
                                   const std::string& trigger) {
  EVE_ASSIGN_OR_RETURN(ViewEntry * entry, GetMutable(name));
  EvolutionRecord record;
  record.trigger = trigger;
  record.old_version = PrintViewCompact(entry->definition);
  entry->history.push_back(std::move(record));
  entry->state = ViewState::kDead;
  Touch();
  return Status::OK();
}

}  // namespace eve
