#include "server/catalog.h"

#include <utility>

#include "engine/engine.h"
#include "fsa/serialize.h"

namespace strdb {

SharedCatalog::SharedCatalog(Alphabet alphabet)
    : alphabet_(std::move(alphabet)),
      store_(CatalogStore::InMemory(alphabet_)) {}

void SharedCatalog::SnapshotState(
    std::shared_ptr<const Database>* db,
    std::shared_ptr<const PagedSet>* paged,
    std::shared_ptr<const StatsMap>* stats) const {
  // store_mu_ is only ever held for this read and OpenDurable's pointer
  // swap, so a reader grabbing its snapshot never queues behind a WAL
  // fsync the writer is sitting in (the writer holds mu_, not
  // store_mu_, across I/O).  The store makes the same guarantee inside.
  std::lock_guard<std::mutex> lock(store_mu_);
  store_->SnapshotState(db, paged, stats);
}

void SharedCatalog::set_store_options(const StoreOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  store_options_ = options;
}

bool SharedCatalog::PagerStatus(PagerStats* stats, int64_t* capacity_bytes,
                                size_t* spilled) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!store_->durable()) return false;
  if (stats != nullptr) *stats = store_->pager_stats();
  if (capacity_bytes != nullptr) {
    *capacity_bytes = store_->pager_capacity_bytes();
  }
  if (spilled != nullptr) *spilled = store_->PagedDb()->size();
  return true;
}

Status SharedCatalog::PutRelation(const std::string& name, int arity,
                                  std::vector<Tuple> tuples, const ReqId& req,
                                  bool* deduped) {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->PutRelation(name, arity, std::move(tuples), req, deduped);
}

Status SharedCatalog::InsertTuples(const std::string& name,
                                   std::vector<Tuple> tuples,
                                   const ReqId& req, bool* deduped) {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->InsertTuples(name, std::move(tuples), req, deduped);
}

Status SharedCatalog::DropRelation(const std::string& name, const ReqId& req,
                                   bool* deduped) {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->DropRelation(name, req, deduped);
}

std::map<std::string, std::string> SharedCatalog::LostRelations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->LostRelations();
}

Status SharedCatalog::ScrubNow(ScrubReport* report) {
  // Deliberately not under mu_: a scrub pass is bulk I/O, and the store
  // takes its own locks in the phases that need them.  The store_
  // pointer only changes under mu_, so guard the read alone.
  CatalogStore* store = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    store = store_.get();
    if (!store->durable()) {
      return Status::InvalidArgument("no durable session; nothing to scrub");
    }
  }
  return store->ScrubNow(report);
}

bool SharedCatalog::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->durable();
}

std::string SharedCatalog::durable_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_->dir();
}

Status SharedCatalog::OpenDurable(const std::string& dir,
                                  RecoveryReport* report, int* warmed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_->durable()) {
    return Status::InvalidArgument("a durable session is already open ('" +
                                   store_->dir() + "'); close it first");
  }
  auto opened = CatalogStore::Open(dir, alphabet_, store_options_, report);
  if (!opened.ok()) return opened.status();
  {
    // The recovered store shadows the directory-less one (nothing is
    // merged), which dies with `opened` once readers cannot reach it.
    std::lock_guard<std::mutex> store_lock(store_mu_);
    store_.swap(*opened);
  }

  // Warm the engine's artifact cache from the persisted automata, so the
  // first query after a restart skips recompilation.
  int count = 0;
  for (const auto& [key, text] : store_->automata()) {
    Result<Fsa> fsa = DeserializeFsa(alphabet_, text);
    if (!fsa.ok()) continue;  // recovery already verified; belt and braces
    Engine::Shared().cache().InstallFsa(
        key, std::make_shared<const Fsa>(std::move(*fsa)));
    ++count;
  }
  if (warmed != nullptr) *warmed = count;
  return Status::OK();
}

Status SharedCatalog::CheckpointDurable(int* persisted, int64_t* generation,
                                        size_t* relations) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!store_->durable()) {
    return Status::InvalidArgument("no durable session; run 'open DIR' first");
  }
  // Harvest the engine's compiled automata so the next open can warm
  // from disk.  Collect first: ForEachFsa runs under the cache lock and
  // persistence does real I/O.
  std::vector<std::pair<std::string, std::string>> artifacts;
  Engine::Shared().cache().ForEachFsa(
      [&](const std::string& key, const Fsa& fsa) {
        artifacts.emplace_back(key, SerializeFsa(fsa));
      });
  int count = 0;
  for (auto& [key, text] : artifacts) {
    STRDB_RETURN_IF_ERROR(store_->InstallAutomatonText(key, std::move(text)));
    ++count;
  }
  STRDB_RETURN_IF_ERROR(store_->Checkpoint());
  if (persisted != nullptr) *persisted = count;
  if (generation != nullptr) *generation = store_->generation();
  if (relations != nullptr) {
    // Spilled relations are still relations: the count reflects the
    // whole catalog, wherever each relation lives.
    *relations = store_->db().relations().size() + store_->PagedDb()->size();
  }
  return Status::OK();
}

Status SharedCatalog::CloseDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!store_->durable()) {
    return Status::InvalidArgument("no durable session to close");
  }
  // In place: readers keep pulling snapshots from the same store, which
  // keeps its relations, statistics and request window.
  return store_->Detach();
}

}  // namespace strdb
