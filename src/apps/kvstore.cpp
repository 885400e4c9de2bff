#include "apps/kvstore.hpp"

#include <algorithm>
#include <cstdio>

#include "util/digest.hpp"

namespace idea::apps {

KvStore::KvStore(shard::ShardedCluster& cluster, KvStoreOptions options)
    : cluster_(cluster),
      options_(options),
      session_(cluster, options.session) {}

FileId KvStore::bucket_of(const std::string& key) const {
  return options_.first_file +
         static_cast<FileId>(mix64(fnv1a(key)) % options_.buckets);
}

double KvStore::pair_meta(const std::string& key, const std::string& value) {
  double sum = 0.0;
  for (const char c : key) sum += static_cast<unsigned char>(c);
  for (const char c : value) sum += static_cast<unsigned char>(c);
  return sum / 100.0;
}

bool KvStore::put(const std::string& key, const std::string& value) {
  const bool ok = session_
                      .put(bucket_of(key), key + kSeparator + value,
                           pair_meta(key, value))
                      .ok();
  ok ? ++puts_ : ++blocked_puts_;
  return ok;
}

std::optional<std::string> KvStore::get(const std::string& key) {
  ++gets_;
  const client::OpHandle<client::ReadResult> handle =
      session_.read(bucket_of(key));
  if (!handle.ok()) return std::nullopt;
  // Scan the routed view in place (a shared snapshot — no copy of the
  // bucket's history).  The view is in canonical order, so the last
  // live match is the value a reader of the rendered file sees as
  // current.
  const std::string prefix = key + kSeparator;
  const replica::Update* best = nullptr;
  for (const replica::Update& u : *handle->updates) {
    if (u.invalidated ||
        u.content.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    best = &u;
  }
  if (best == nullptr) return std::nullopt;
  ++hits_;
  return best->content.substr(prefix.size());
}

// ---------------------------------------------------------------------------
// KvWorkload
// ---------------------------------------------------------------------------

KvWorkload::KvWorkload(KvStore& store, sim::Simulator& sim,
                       KvWorkloadParams params, std::uint64_t seed)
    : store_(store),
      sim_(sim),
      params_(params),
      rng_(seed),
      keys_(params.keyspace, params.zipf_s) {}

void KvWorkload::start() {
  end_time_ = sim_.now() + params_.duration;
  for (std::uint32_t c = 0; c < params_.clients; ++c) {
    // Stagger client start so the first tick is not one giant burst.
    const auto offset = static_cast<SimDuration>(
        rng_.next_below(static_cast<std::uint64_t>(params_.interval) + 1));
    schedule_client(c, 0, sim_.now() + offset);
  }
}

void KvWorkload::schedule_client(std::uint32_t client,
                                 std::uint64_t op_index, SimTime when) {
  if (when > end_time_) return;
  sim_.schedule_at(when, [this, client, op_index] {
    const std::uint32_t key_index = keys_.sample(rng_);
    char key[16];
    std::snprintf(key, sizeof key, "k%06u", key_index);
    ++attempted_;
    if (params_.read_fraction > 0.0 && rng_.chance(params_.read_fraction)) {
      (void)store_.get(key);
    } else {
      char value[32];
      std::snprintf(value, sizeof value, "c%u-op%llu", client,
                    static_cast<unsigned long long>(op_index));
      if (!store_.put(key, value)) ++blocked_;
    }
    SimDuration gap = params_.interval;
    if (params_.jitter_frac > 0.0) {
      const double j = rng_.uniform(-params_.jitter_frac, params_.jitter_frac);
      gap = std::max<SimDuration>(
          1, gap + static_cast<SimDuration>(
                       j * static_cast<double>(params_.interval)));
    }
    schedule_client(client, op_index + 1, sim_.now() + gap);
  });
}

}  // namespace idea::apps
