#include "engine/stats.h"

#include <algorithm>

namespace strdb {

std::shared_ptr<const RelationStats> StatsCatalog::Get(
    const Database& db, const std::string& name) {
  Result<const StringRelation*> rel = db.Get(name);
  if (!rel.ok()) return nullptr;
  const uint64_t epoch = db.stats_epoch(name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end() && it->second.epoch == epoch) {
      return it->second.stats;
    }
  }
  auto stats =
      std::make_shared<const RelationStats>(ComputeRelationStats(**rel));
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(cache_.size()) >= kMaxEntries) cache_.clear();
  cache_[name] = Entry{epoch, stats};
  return stats;
}

int64_t StatsCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(cache_.size());
}

void StatsCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

void SelectivityFeedback::Record(const std::string& fsa_key,
                                 double observed) {
  if (!(observed >= 0)) return;  // rejects NaN too
  const double clamped = std::max(observed, 1e-6);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ewma_.find(fsa_key);
  if (it == ewma_.end()) {
    if (static_cast<int64_t>(ewma_.size()) >= kMaxEntries) ewma_.clear();
    ewma_.emplace(fsa_key, clamped);
  } else {
    it->second += kAlpha * (clamped - it->second);
  }
}

bool SelectivityFeedback::Lookup(const std::string& fsa_key,
                                 double* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ewma_.find(fsa_key);
  if (it == ewma_.end()) return false;
  *out = it->second;
  return true;
}

double SelectivityFeedback::Corrected(const std::string& fsa_key,
                                      double model_estimate) const {
  double observed = 0;
  if (!Lookup(fsa_key, &observed)) return model_estimate;
  return kBlend * observed + (1.0 - kBlend) * model_estimate;
}

int64_t SelectivityFeedback::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(ewma_.size());
}

void SelectivityFeedback::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ewma_.clear();
}

bool DensityCache::Lookup(const std::string& key, double* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  *out = it->second;
  return true;
}

void DensityCache::Insert(const std::string& key, double density) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int64_t>(cache_.size()) >= kMaxEntries) cache_.clear();
  cache_[key] = density;
}

void DensityCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

}  // namespace strdb
