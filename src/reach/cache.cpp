#include "reach/cache.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "reach/append_log.hpp"
#include "reach/serialize.hpp"

namespace dwv::reach {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// One multiply + xor-shift per 8-byte word (vs. 8 FNV byte rounds): keys
// are built per verifier call, so this is on the learning hot path.
std::uint64_t mix_step(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::uint64_t canonical_bits(double x) {
  // Fold -0.0 onto +0.0 so the two (numerically equal) keys coincide; all
  // other values (including NaN payloads) keep their exact bits.
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Persistent-tier on-disk format (DESIGN.md §15) ---------------------
//
// Each shard file is a ser::AppendLog (reach/append_log.hpp):
// Header  = magic:u64 version:u32 reserved:u32 salt:u64        (24 bytes)
// payload = key.id:u64 nwords:u64 word:u64*nwords flowpipe(ser::put)
//
// Every insert appends one framed record (last record per key wins);
// `compact_cache_dir` rewrites live records and publishes by rename. The
// header's salt repeats the salt hex in the file name; both must match
// the opener's configuration or the file is reset to cold.

// "DWVFCAC1" little-endian: cache-format magic, version in the last byte.
constexpr std::uint64_t kDiskMagic = 0x3143414346565744ull;
constexpr std::uint32_t kDiskVersion = 1;
constexpr std::size_t kHeaderSize = 24;

std::string shard_file_name(std::uint64_t salt, std::size_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx-%02zu.dwvfc",
                static_cast<unsigned long long>(salt), shard);
  return buf;
}

ser::Bytes header_bytes(std::uint64_t salt) {
  ser::Writer w;
  w.u64(kDiskMagic);
  w.u32(kDiskVersion);
  w.u32(0);
  w.u64(salt);
  return w.take();
}

/// Parses the cache key out of a record payload and leaves `r` positioned
/// at the flowpipe bytes. Returns false on malformed input.
bool parse_payload_key(ser::Reader& r, FlowpipeCache::Key& key) {
  key.id = r.u64();
  const std::uint64_t nwords = r.count(8);
  if (!r.ok()) return false;
  key.words.resize(static_cast<std::size_t>(nwords));
  for (std::size_t i = 0; i < nwords; ++i) key.words[i] = r.u64();
  if (!r.ok()) return false;
  key.hash = hash_words(key.id, key.words.data(), key.words.size());
  return true;
}

/// One scanned record: its frame bounds within the file and its key.
struct ScannedRecord {
  FlowpipeCache::Key key;
  std::uint64_t frame_off = 0;    ///< offset of the length field
  std::uint64_t payload_len = 0;  ///< payload bytes (frame adds 16)
};

/// A scan visitor collecting every record whose key parses; a record
/// whose key does not parse ends the scan like a failed checksum.
ser::RecordVisitor collect_records(std::vector<ScannedRecord>& out) {
  return [&out](const std::uint8_t* payload, std::size_t len,
                std::uint64_t frame_off) {
    ser::Reader pr(payload, len);
    ScannedRecord rec;
    if (!parse_payload_key(pr, rec.key)) return false;
    rec.frame_off = frame_off;
    rec.payload_len = len;
    out.push_back(std::move(rec));
    return true;
  };
}

/// Whether a shard file's header is this configuration's: magic, version
/// and salt must match (the reserved word is ignored).
bool header_matches(const std::uint8_t* data, std::size_t size,
                    std::uint64_t salt) {
  if (size < kHeaderSize) return false;
  ser::Reader hr(data, kHeaderSize);
  const bool magic_ok = hr.u64() == kDiskMagic;
  const bool version_ok = hr.u32() == kDiskVersion;
  hr.u32();  // reserved
  return magic_ok && version_ok && hr.u64() == salt && hr.ok();
}

}  // namespace

struct FlowpipeCache::DiskTier {
  struct Loc {
    std::uint32_t file = 0;
    std::uint64_t payload_off = 0;
    std::uint64_t payload_len = 0;
  };

  std::vector<ser::AppendLog> files;  ///< one log per disk shard
  std::unordered_map<Key, Loc, KeyHash> index;
  std::mutex mu;
};

std::uint64_t hash_words(std::uint64_t seed, const std::uint64_t* words,
                         std::size_t n) {
  std::uint64_t h = seed ^ kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) h = mix_step(h, words[i]);
  return h;
}

std::uint64_t hash_string(std::uint64_t seed, const std::string& s) {
  std::uint64_t h = seed ^ kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

FlowpipeCache::Key FlowpipeCache::make_key(std::uint64_t id,
                                           const geom::Box& x0,
                                           const linalg::Vec& params) {
  Key key;
  key.id = id;
  key.words.reserve(2 * x0.dim() + params.size());
  for (std::size_t i = 0; i < x0.dim(); ++i) {
    key.words.push_back(canonical_bits(x0[i].lo()));
    key.words.push_back(canonical_bits(x0[i].hi()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    key.words.push_back(canonical_bits(params[i]));
  }
  key.hash = hash_words(id, key.words.data(), key.words.size());
  return key;
}

FlowpipeCache::FlowpipeCache(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.capacity < cfg_.shards) cfg_.capacity = cfg_.shards;
  per_shard_capacity_ = (cfg_.capacity + cfg_.shards - 1) / cfg_.shards;
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (cfg_.dir.empty()) return;

  // Open the persistent tier. Directory/open/write failures THROW — the
  // user asked for persistence, and running silently cold would break the
  // warm-start contract. Unreadable CONTENT only degrades to cold.
  auto tier = std::make_unique<DiskTier>();
  {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (ec) {
      throw std::runtime_error("cache-dir create failed for '" + cfg_.dir +
                               "': " + ec.message());
    }
  }
  const std::size_t nfiles = cfg_.disk_shards == 0 ? 1 : cfg_.disk_shards;
  tier->files.reserve(nfiles);
  const std::uint64_t salt = cfg_.disk_salt ^ cfg_.disk_salt_mix;
  const ser::Bytes header = header_bytes(salt);
  for (std::size_t k = 0; k < nfiles; ++k) {
    // Foreign magic, stale version, or mismatched salt: cold. The file
    // name is OURS (salt-hex prefix), so resetting it cannot clobber a
    // concurrently-used configuration.
    std::vector<ScannedRecord> recs;
    tier->files.emplace_back(
        cfg_.dir + "/" + shard_file_name(salt, k), header,
        [salt](const std::uint8_t* data, std::size_t size) {
          return header_matches(data, size, salt);
        },
        collect_records(recs));
    for (ScannedRecord& rec : recs) {
      // Later records supersede earlier ones (append-only last-wins).
      tier->index[std::move(rec.key)] =
          DiskTier::Loc{static_cast<std::uint32_t>(k),
                        rec.frame_off + ser::kFrameSize, rec.payload_len};
    }
  }
  disk_ = std::move(tier);
}

FlowpipeCache::~FlowpipeCache() = default;

std::uint64_t FlowpipeCache::mem_insert(const Key& key, const Flowpipe& fp) {
  Shard& sh = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      it->second->fp = fp;
      it->second->pending = false;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(Entry{key, fp, false});
      sh.index.emplace(key, sh.lru.begin());
      while (sh.lru.size() > per_shard_capacity_) {
        sh.index.erase(sh.lru.back().key);
        sh.lru.pop_back();
        ++evicted;
      }
    }
  }
  return evicted;
}

std::optional<Flowpipe> FlowpipeCache::disk_fetch(const Key& key) {
  if (!disk_) return std::nullopt;
  DiskTier::Loc loc;
  {
    std::lock_guard<std::mutex> lock(disk_->mu);
    const auto it = disk_->index.find(key);
    if (it == disk_->index.end()) return std::nullopt;
    loc = it->second;
  }
  ser::Bytes buf;
  const std::uint8_t* payload =
      disk_->files[loc.file].read(loc.payload_off, loc.payload_len, buf);
  if (payload == nullptr) return std::nullopt;
  // The index only holds checksum-verified records, but verify structure
  // anyway: a parse failure is a miss, never an error.
  ser::Reader r(payload, static_cast<std::size_t>(loc.payload_len));
  Key stored;
  if (!parse_payload_key(r, stored) || !(stored == key)) return std::nullopt;
  Flowpipe fp;
  if (!ser::get(r, fp)) return std::nullopt;
  disk_bytes_read_.fetch_add(loc.payload_len, std::memory_order_relaxed);
  return fp;
}

void FlowpipeCache::disk_append(const Key& key, const Flowpipe& fp) {
  if (!disk_) return;
  ser::Writer w;
  w.u64(key.id);
  w.u64(key.words.size());
  for (std::uint64_t word : key.words) w.u64(word);
  ser::put(w, fp);
  const ser::Bytes payload = w.take();

  std::lock_guard<std::mutex> lock(disk_->mu);
  if (disk_->index.count(key) != 0) return;  // already persisted
  const std::size_t k = key.hash % disk_->files.size();
  const std::uint64_t off = disk_->files[k].append(payload);
  disk_->index[key] = DiskTier::Loc{static_cast<std::uint32_t>(k), off,
                                    static_cast<std::uint64_t>(payload.size())};
  disk_bytes_written_.fetch_add(ser::kFrameSize + payload.size(),
                                std::memory_order_relaxed);
}

std::optional<Flowpipe> FlowpipeCache::lookup(const Key& key) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::optional<Flowpipe> out;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    // Pending placeholders are invisible: a racing reader recomputes, just
    // as it would have before the batched walk inserted the placeholder.
    if (it != sh.index.end() && !it->second->pending) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      out = it->second->fp;
    }
  }
  if (out) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if ((out = disk_fetch(key))) {
    // Warm start: backfill the memory tier so repeats of this key are RAM
    // hits. Counted as an insertion like any other arrival (lookup_walk
    // does the same, so scalar and batched transcripts stay aligned).
    const std::uint64_t evicted = mem_insert(key, *out);
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return out;
}

std::optional<Flowpipe> FlowpipeCache::lookup_walk(const Key& key,
                                                   bool* pending_hit) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::optional<Flowpipe> out;
  bool hit = false;
  *pending_hit = false;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      hit = true;
      if (it->second->pending) {
        *pending_hit = true;  // value arrives with the batched backfill
      } else {
        out = it->second->fp;
      }
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if ((out = disk_fetch(key))) {
    // Identical to lookup()'s warm path: the walk transcript must not
    // depend on which tier a hit came from.
    const std::uint64_t evicted = mem_insert(key, *out);
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return out;
}

void FlowpipeCache::insert(const Key& key, const Flowpipe& fp) {
  const std::uint64_t t0 = now_ns();
  // Concurrent miss on the same key in mem_insert: both threads computed
  // the same (deterministic) pipe; refresh rather than duplicate. Also
  // fills a pending placeholder a racing reader recomputed around.
  const std::uint64_t evicted = mem_insert(key, fp);
  disk_append(key, fp);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void FlowpipeCache::insert_pending(const Key& key) {
  const std::uint64_t t0 = now_ns();
  Shard& sh = shard_for(key);
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      // Re-inserting over a resident entry (e.g. a racing thread computed
      // the value meanwhile): keep the value, just refresh the LRU slot.
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(Entry{key, Flowpipe{}, true});
      sh.index.emplace(key, sh.lru.begin());
      while (sh.lru.size() > per_shard_capacity_) {
        sh.index.erase(sh.lru.back().key);
        sh.lru.pop_back();
        ++evicted;
      }
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  overhead_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
}

void FlowpipeCache::replace(const Key& key, const Flowpipe& fp) {
  {
    Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    // No stats, no LRU splice: the entry already paid its insert at the
    // scalar position in the walk; this only fills in the value.
    if (it != sh.index.end()) {
      it->second->fp = fp;
      it->second->pending = false;
    }
  }
  // The scalar sequence persisted this value at its insert(); the batched
  // backfill persists it here — whether or not the placeholder survived
  // in RAM, so both paths leave the same records on disk.
  disk_append(key, fp);
}

CacheStats FlowpipeCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_bytes_read = disk_bytes_read_.load(std::memory_order_relaxed);
  s.disk_bytes_written = disk_bytes_written_.load(std::memory_order_relaxed);
  if (disk_) {
    std::lock_guard<std::mutex> lock(disk_->mu);
    s.disk_entries = disk_->index.size();
  }
  s.overhead_seconds =
      1e-9 * static_cast<double>(overhead_ns_.load(std::memory_order_relaxed));
  s.miss_compute_seconds =
      1e-9 *
      static_cast<double>(miss_compute_ns_.load(std::memory_order_relaxed));
  return s;
}

void FlowpipeCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  disk_bytes_read_.store(0, std::memory_order_relaxed);
  disk_bytes_written_.store(0, std::memory_order_relaxed);
  overhead_ns_.store(0, std::memory_order_relaxed);
  miss_compute_ns_.store(0, std::memory_order_relaxed);
}

void FlowpipeCache::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
  }
}

std::size_t FlowpipeCache::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    n += sh->lru.size();
  }
  return n;
}

void FlowpipeCache::add_miss_compute_seconds(double s) {
  miss_compute_ns_.fetch_add(static_cast<std::uint64_t>(s * 1e9),
                             std::memory_order_relaxed);
}

namespace {

// Fold the verifier's configuration fingerprint (dynamics coefficients,
// spec boxes, range mode, adaptive options, ...) in with its name: two
// same-named verifiers over different systems sharing one cache must
// never alias.
std::uint64_t verifier_key_seed(const Verifier& v) {
  std::uint64_t seed = hash_string(0x9e3779b97f4a7c15ull, v.name());
  const std::uint64_t salt = v.cache_salt();
  return hash_words(seed, &salt, 1);
}

// A persistent tier keyed for this verifier: the shard files carry the
// full key seed (name + cache_salt) in their names and headers, so runs
// under a different configuration open different (cold) files.
FlowpipeCache::Config salted(FlowpipeCache::Config cfg, const Verifier& v) {
  if (!cfg.dir.empty() && cfg.disk_salt == 0) {
    cfg.disk_salt = verifier_key_seed(v);
  }
  return cfg;
}

}  // namespace

CachingVerifier::CachingVerifier(VerifierPtr inner,
                                 std::shared_ptr<FlowpipeCache> cache)
    : inner_(std::move(inner)), cache_(std::move(cache)) {
  name_seed_ = verifier_key_seed(*inner_);
}

CachingVerifier::CachingVerifier(VerifierPtr inner, FlowpipeCache::Config cfg)
    : inner_(std::move(inner)) {
  name_seed_ = verifier_key_seed(*inner_);
  cache_ = std::make_shared<FlowpipeCache>(salted(std::move(cfg), *inner_));
}

FlowpipeCache::Key CachingVerifier::key_for(
    const geom::Box& x0, const nn::Controller& ctrl) const {
  // The controller's architecture string keeps two different controller
  // families with coincidentally equal flat parameter vectors apart.
  const std::uint64_t id = hash_string(name_seed_, ctrl.describe());
  return FlowpipeCache::make_key(id, x0, ctrl.params());
}

Flowpipe CachingVerifier::compute(const geom::Box& x0,
                                  const nn::Controller& ctrl) const {
  const FlowpipeCache::Key key = key_for(x0, ctrl);
  if (std::optional<Flowpipe> hit = cache_->lookup(key)) {
    return std::move(*hit);
  }
  const auto t0 = std::chrono::steady_clock::now();
  Flowpipe fp = inner_->compute(x0, ctrl);
  const auto t1 = std::chrono::steady_clock::now();
  cache_->add_miss_compute_seconds(
      std::chrono::duration<double>(t1 - t0).count());
  cache_->insert(key, fp);
  return fp;
}

CacheCompactionStats compact_cache_dir(const std::string& dir) {
  CacheCompactionStats stats;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".dwvfc") continue;

    // Read the whole log; files another tool owns (foreign magic) are left
    // untouched, stale versions of OUR magic are deleted (no reader for
    // them exists anymore), valid files are rewritten to live records.
    const ser::Bytes data = ser::read_file(path);
    stats.bytes_before += data.size();
    if (data.size() < kHeaderSize) continue;
    ser::Reader hr(data.data(), kHeaderSize);
    if (hr.u64() != kDiskMagic) continue;  // not ours
    if (hr.u32() != kDiskVersion) {
      std::filesystem::remove(path, ec);
      ++stats.stale_files_deleted;
      continue;
    }

    std::vector<ScannedRecord> recs;
    ser::scan_records(data.data(), data.size(), kHeaderSize,
                      collect_records(recs));
    // Live set = last record per key; output preserves first-seen key
    // order, so compacting twice is a fixpoint.
    std::unordered_map<FlowpipeCache::Key, std::size_t, FlowpipeCache::KeyHash>
        last;
    for (std::size_t i = 0; i < recs.size(); ++i) last[recs[i].key] = i;

    ser::Bytes out(data.begin(), data.begin() + kHeaderSize);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (last[recs[i].key] != i) {
        ++stats.records_dropped;
        continue;
      }
      const auto* frame = data.data() + recs[i].frame_off;
      out.insert(out.end(), frame,
                 frame + ser::kFrameSize + recs[i].payload_len);
      ++stats.records_kept;
    }
    ser::write_file(path, out);
    stats.bytes_after += out.size();
    ++stats.files;
  }
  return stats;
}

}  // namespace dwv::reach
