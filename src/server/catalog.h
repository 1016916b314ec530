#ifndef STRDB_SERVER_CATALOG_H_
#define STRDB_SERVER_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/alphabet.h"
#include "core/result.h"
#include "relational/relation.h"
#include "storage/store.h"

namespace strdb {

// The one catalog a process serves, shared by every session (the shell
// is the degenerate single-session case).  It always holds exactly one
// CatalogStore — directory-less until OpenDurable, durable after — and
// adds two things on top of it:
//
//  1. Writer serialization: rel/insert/drop and the durable session
//     verbs serialize on an internal mutex and go to the store, which
//     commits to its WAL before applying whenever it has a directory.
//
//  2. Snapshot isolation for readers: SnapshotState() hands out the
//     store's immutable published snapshots.  Every committed mutation
//     publishes a fresh copy-on-write catalog, so a query evaluates one
//     consistent catalog for its whole run while writers commit freely
//     — readers never block the writer and never observe a half-applied
//     mutation.  Grabbing a snapshot is a pointer copy under a short
//     lock that is never held across I/O.
//
// Durable-session lifecycle mirrors the shell's historical behaviour:
// OpenDurable shadows the in-memory catalog with the recovered store
// (and warms the engine's artifact cache from the persisted automata);
// CloseDurable detaches that store from its directory in place and
// keeps serving its catalog from memory.
class SharedCatalog {
 public:
  explicit SharedCatalog(Alphabet alphabet);

  const Alphabet& alphabet() const { return alphabet_; }

  // The catalog, its spilled-relation set and (unless `stats` is
  // nullptr) its relation statistics as one consistent snapshot; see
  // CatalogStore::SnapshotState.  Never null, never waits behind writer
  // I/O.
  void SnapshotState(std::shared_ptr<const Database>* db,
                     std::shared_ptr<const PagedSet>* paged,
                     std::shared_ptr<const StatsMap>* stats = nullptr) const;

  // Options the next OpenDurable passes to CatalogStore::Open (spill
  // threshold, buffer-pool cap).  Takes effect at open, not on a live
  // store.
  void set_store_options(const StoreOptions& options);

  // Buffer-pool counters and capacity of the attached store's pager,
  // plus the number of currently spilled relations.  False when no
  // durable session is open.  Waits behind a writer's commit in flight.
  bool PagerStatus(PagerStats* stats, int64_t* capacity_bytes,
                   size_t* spilled) const;

  // Catalog mutations (durable once OpenDurable has run), with the
  // store's idempotent-retry contract: when `req` is valid and already
  // inside the applied window, the call is a success no-op with
  // `*deduped = true`.  The window lives in the store — persisted
  // through WAL tags and snapshots while durable, kept across close.
  Status PutRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples, const ReqId& req = {},
                     bool* deduped = nullptr);
  Status InsertTuples(const std::string& name, std::vector<Tuple> tuples,
                      const ReqId& req = {}, bool* deduped = nullptr);
  Status DropRelation(const std::string& name, const ReqId& req = {},
                      bool* deduped = nullptr);

  // Relations the durable store has quarantined (name -> reason); empty
  // when none or when no store is attached.
  std::map<std::string, std::string> LostRelations() const;

  // One synchronous scrub pass over the attached store (see
  // CatalogStore::ScrubNow).  kInvalidArgument without a durable
  // session.
  Status ScrubNow(ScrubReport* report);

  bool durable() const;
  // The open store's directory ("" when not durable).
  std::string durable_dir() const;

  // Attaches a CatalogStore over `dir` (creating it if necessary),
  // replays its WAL and warms the engine artifact cache from the
  // persisted automata.  `report` (optional) receives what recovery
  // found; `warmed` (optional) the number of automata installed.
  Status OpenDurable(const std::string& dir, RecoveryReport* report,
                     int* warmed);

  // Harvests the engine's compiled automata into the store and folds
  // the WAL into a fresh snapshot generation.  Out-params (each
  // optional) feed the shell's transcript.
  Status CheckpointDurable(int* persisted, int64_t* generation,
                           size_t* relations);

  // Detaches the store from its directory; the catalog stays available
  // in memory (see CatalogStore::Detach).
  Status CloseDurable();

 private:
  const Alphabet alphabet_;

  mutable std::mutex mu_;  // serializes writers (including store I/O)
  StoreOptions store_options_;  // applied at the next OpenDurable

  // The catalog; never null.  Replaced only by OpenDurable, under both
  // mu_ and store_mu_.  Readers take store_mu_ alone — a short-hold
  // lock never held across I/O — so they never queue behind a writer
  // sitting in a WAL fsync, and never touch a store being replaced.
  mutable std::mutex store_mu_;
  std::unique_ptr<CatalogStore> store_;
};

}  // namespace strdb

#endif  // STRDB_SERVER_CATALOG_H_
