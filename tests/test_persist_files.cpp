// Byte-level contracts of every dwv binary file (DESIGN.md §15, §16): the
// flowpipe-cache shard log, the X_I search checkpoint, and the shard and
// search result files.
//
//  1. Golden bytes: each file written from a fixed sequence of operations
//     matches the length and checksum recorded in golden_search.txt.
//  2. Fixtures: files written by an earlier build (tests/fixtures/) still
//     open and load to the same records and result.
//  3. Corruption drills over the shared record log: every truncation and
//     every single-byte flip opens to exactly the intact record prefix.
//  4. Failed writes (a child process under a small RLIMIT_FSIZE) leave
//     every earlier record and result file readable.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/search_shard.hpp"
#include "golden_search.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/append_log.hpp"
#include "reach/cache.hpp"
#include "reach/linear_reach.hpp"
#include "reach/serialize.hpp"

#ifndef DWV_FIXTURE_DIR
#error "DWV_FIXTURE_DIR must name the directory of the file fixtures"
#endif

namespace dwv {
namespace {

namespace fs = std::filesystem;
namespace ser = reach::ser;
using golden::expect_golden;

constexpr std::uint64_t kSalt = 0x5a17;

ser::Bytes file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return ser::Bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("dwvfile_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

fs::path fixture(const std::string& name) {
  return fs::path(DWV_FIXTURE_DIR) / name;
}

// --- Cache shard log ----------------------------------------------------

reach::FlowpipeCache::Key fixed_key(std::uint64_t i) {
  const interval::IVec iv{interval::Interval(-1.0, double(i) + 0.5),
                          interval::Interval(0.25 * double(i), 3.0)};
  return reach::FlowpipeCache::make_key(7, geom::Box(iv),
                                        linalg::Vec{double(i), -0.5});
}

// A small flowpipe built from arithmetic alone (no random distributions),
// so the expected records are the same on every standard library.
reach::Flowpipe fixed_pipe(std::uint64_t i) {
  reach::Flowpipe fp;
  const double s = double(i);
  for (std::size_t k = 0; k <= 2; ++k) {
    const double t = s + 0.125 * double(k);
    fp.step_sets.push_back(geom::Box(interval::IVec{
        interval::Interval(-t, t + 1.0), interval::Interval(0.5 * t, 2.0 * t + 1.0)}));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    fp.interval_hulls.push_back(fp.step_sets[k].hull_with(fp.step_sets[k + 1]));
    fp.step_polys.push_back(geom::Polygon2d(
        {{0.0, 0.0}, {s + 1.0, 0.0}, {0.5, double(k + 1)}}));
  }
  fp.valid = i % 2 == 0;
  if (!fp.valid) fp.failure = "remainder validation failed";
  fp.tm_stats.substeps = 10 + i;
  fp.tm_stats.h_min = 0.05;
  fp.tm_stats.h_max = 0.1;
  return fp;
}

reach::FlowpipeCacheConfig cache_config(const fs::path& dir) {
  reach::FlowpipeCacheConfig cfg;
  cfg.dir = dir.string();
  cfg.disk_salt = kSalt;
  cfg.disk_shards = 1;
  return cfg;
}

const char* const kLogName = "0000000000005a17-00.dwvfc";

// Writes the fixed log: keys 0, 1, 2 from one instance, then key 1 again
// (a different pipe) from a second instance opened before those inserts,
// so the log holds a superseded record.
fs::path write_cache_log(const fs::path& dir) {
  reach::FlowpipeCache a(cache_config(dir));
  reach::FlowpipeCache b(cache_config(dir));
  for (std::uint64_t i = 0; i < 3; ++i) a.insert(fixed_key(i), fixed_pipe(i));
  b.insert(fixed_key(1), fixed_pipe(11));
  return dir / kLogName;
}

ser::Bytes pipe_bytes(const reach::Flowpipe& fp) {
  ser::Writer w;
  ser::put(w, fp);
  return w.take();
}

// The fixed log's live records: the second writer's key 1 wins.
void expect_fixed_log_records(reach::FlowpipeCache& cache) {
  EXPECT_EQ(cache.stats().disk_entries, 3u);
  const std::uint64_t expect[3] = {0, 11, 2};
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto hit = cache.lookup(fixed_key(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(pipe_bytes(*hit), pipe_bytes(fixed_pipe(expect[i])))
        << "key " << i;
  }
  EXPECT_EQ(cache.stats().disk_hits, 3u);
}

TEST(PersistFiles, CacheLogGoldenBytes) {
  const fs::path dir = fresh_dir("cache_golden");
  const fs::path log = write_cache_log(dir);
  expect_golden("file_cache_log", file_bytes(log));

  const reach::CacheCompactionStats cs = reach::compact_cache_dir(dir.string());
  EXPECT_EQ(cs.records_kept, 3u);
  EXPECT_EQ(cs.records_dropped, 1u);
  expect_golden("file_cache_log_compacted", file_bytes(log));
}

TEST(PersistFiles, CacheLogFixtureLoads) {
  const fs::path dir = fresh_dir("cache_fixture");
  fs::copy_file(fixture(kLogName), dir / kLogName);
  const ser::Bytes before = file_bytes(dir / kLogName);
  {
    reach::FlowpipeCache cache(cache_config(dir));
    expect_fixed_log_records(cache);
  }
  // Opening an intact log leaves it byte for byte as it was.
  EXPECT_EQ(file_bytes(dir / kLogName), before);

  reach::compact_cache_dir(dir.string());
  expect_golden("file_cache_log_compacted", file_bytes(dir / kLogName));
  reach::FlowpipeCache compacted(cache_config(dir));
  expect_fixed_log_records(compacted);
}

// --- X_I search files ---------------------------------------------------

// ACC with X0 enlarged 3x around its center: a depth-4 search mixes
// certified, rejected and bisected cells.
struct AccSearch {
  AccSearch() {
    bench = ode::make_acc_benchmark();
    spec = bench.spec;
    for (std::size_t d = 0; d < spec.x0.dim(); ++d) {
      const double c = 0.5 * (spec.x0[d].lo() + spec.x0[d].hi());
      const double h = 1.5 * (spec.x0[d].hi() - spec.x0[d].lo());
      spec.x0[d] = interval::Interval(c - h, c + h);
    }
    verifier = std::make_unique<reach::LinearVerifier>(bench.system, spec);
  }
  core::ShardSearchOptions options() const {
    core::ShardSearchOptions opt;
    opt.base.max_depth = 4;
    opt.base.threads = 1;
    opt.checkpoint_every = 2;
    return opt;
  }
  core::InitialSetResult uninterrupted() const {
    return core::search_initial_set(*verifier, spec, mid, options().base);
  }
  ode::Benchmark bench;
  ode::ReachAvoidSpec spec;
  std::unique_ptr<reach::LinearVerifier> verifier;
  nn::LinearController mid{linalg::Mat{{0.8, -2.75}}};
};

// Counts the records of a checkpoint (header: magic, version, shards,
// fingerprint, shard index; then len:u64 checksum:u64 payload frames).
std::size_t checkpoint_records(const ser::Bytes& b) {
  std::size_t pos = 8 + 4 + 4 + 8 + 4;
  std::size_t n = 0;
  while (pos + 16 <= b.size()) {
    ser::Reader r(b.data() + pos, 16);
    const std::uint64_t len = r.u64();
    pos += 16 + static_cast<std::size_t>(len);
    ++n;
  }
  EXPECT_EQ(pos, b.size());
  return n;
}

// Initial snapshot, then one per round; cancelled after the second round.
void write_checkpoint(const AccSearch& s, const fs::path& path) {
  core::ShardSearchOptions opt = s.options();
  opt.checkpoint_file = path.string();
  std::size_t rounds = 0;
  opt.progress = [&rounds](const core::ShardSearchProgress&) {
    return ++rounds < 2;
  };
  (void)core::search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
}

void expect_resumes_to_uninterrupted(const AccSearch& s, const fs::path& ck) {
  const ser::Bytes before = file_bytes(ck);
  core::ShardSearchOptions opt = s.options();
  opt.checkpoint_file = ck.string();
  const core::InitialSetResult resumed =
      core::search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  ser::Writer a, b;
  core::put(a, resumed);
  core::put(b, s.uninterrupted());
  EXPECT_EQ(a.bytes(), b.bytes());
  // Resuming appends snapshots behind the loaded ones.
  const ser::Bytes after = file_bytes(ck);
  ASSERT_GT(after.size(), before.size());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
}

TEST(PersistFiles, CheckpointGoldenBytes) {
  const AccSearch s;
  const fs::path ck = fresh_dir("ckpt_golden") / "search.ckpt";
  write_checkpoint(s, ck);
  const ser::Bytes bytes = file_bytes(ck);
  EXPECT_EQ(checkpoint_records(bytes), 3u);
  expect_golden("file_checkpoint_3_snapshots", bytes);
}

TEST(PersistFiles, CheckpointFixtureResumes) {
  const AccSearch s;
  const fs::path ck = fresh_dir("ckpt_fixture") / "search.ckpt";
  fs::copy_file(fixture("search.ckpt"), ck);
  expect_resumes_to_uninterrupted(s, ck);
}

core::ShardResult shard0(const AccSearch& s) {
  core::ShardSearchOptions opt = s.options();
  opt.shards = 2;
  opt.shard_index = 0;
  return core::search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
}

std::uint64_t fingerprint(const AccSearch& s) {
  return core::xi_search_fingerprint(*s.verifier, s.spec, s.mid,
                                     s.options().base);
}

TEST(PersistFiles, ResultFilesGoldenBytes) {
  const AccSearch s;
  const fs::path dir = fresh_dir("result_golden");
  core::save_shard_result_file((dir / "shard0.xis").string(), shard0(s));
  expect_golden("file_shard_result", file_bytes(dir / "shard0.xis"));
  core::save_initial_set_result_file((dir / "search.xir").string(),
                                     fingerprint(s), s.uninterrupted());
  expect_golden("file_search_result", file_bytes(dir / "search.xir"));
}

TEST(PersistFiles, ResultFileFixturesLoad) {
  const AccSearch s;
  const core::ShardResult part =
      core::load_shard_result_file(fixture("shard0.xis").string());
  ser::Writer a, b;
  core::put(a, part);
  core::put(b, shard0(s));
  EXPECT_EQ(a.bytes(), b.bytes());

  std::uint64_t fp = 0;
  const core::InitialSetResult res = core::load_initial_set_result_file(
      fixture("search.xir").string(), &fp);
  EXPECT_EQ(fp, fingerprint(s));
  ser::Writer c, d;
  core::put(c, res);
  core::put(d, s.uninterrupted());
  EXPECT_EQ(c.bytes(), d.bytes());
}

// --- Corruption drills over the shared record log -----------------------

const ser::Bytes kDrillHeader = {'D', 'R', 'I', 'L', 'L', 'L', 'O', 'G'};

struct Opened {
  std::vector<ser::Bytes> records;
  std::uint64_t file_size = 0;
};

// Opens `path` as a drill log (a foreign or short header resets it),
// optionally appends `extra`, and returns what the open scanned.
Opened open_drill_log(const fs::path& path, const ser::Bytes* extra = nullptr) {
  Opened out;
  {
    ser::AppendLog log(
        path.string(), kDrillHeader,
        [](const std::uint8_t* data, std::size_t size) {
          return size >= kDrillHeader.size() &&
                 std::equal(kDrillHeader.begin(), kDrillHeader.end(), data);
        },
        [&out](const std::uint8_t* payload, std::size_t len, std::uint64_t) {
          out.records.emplace_back(payload, payload + len);
          return true;
        });
    out.file_size = fs::file_size(path);
    if (extra != nullptr) log.append(*extra);
  }
  return out;
}

void write_bytes(const fs::path& path, const ser::Bytes& b) {
  // A new file rather than a truncated one: some file systems flush a
  // file truncated to zero and rewritten when it is closed.
  fs::remove(path);
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

struct DrillLog {
  explicit DrillLog(const std::string& name) : dir(fresh_dir(name)) {
    const fs::path path = dir / "full.log";
    {
      ser::AppendLog log(
          path.string(), kDrillHeader,
          [](const std::uint8_t*, std::size_t) { return false; },
          [](const std::uint8_t*, std::size_t, std::uint64_t) {
            return true;
          });
      ends.push_back(kDrillHeader.size());
      for (const ser::Bytes& p : payloads) {
        const std::uint64_t off = log.append(p);
        EXPECT_EQ(off, ends.back() + ser::kFrameSize);
        ends.push_back(off + p.size());
      }
    }
    bytes = file_bytes(path);
  }

  // Opens `damaged`, which keeps the first `intact` records, and checks
  // that exactly those load, that the file is cut back to them, and that
  // a record appended then is read by the next open.
  void expect_prefix(const ser::Bytes& damaged, std::size_t intact,
                     const std::string& what) {
    SCOPED_TRACE(what);
    const fs::path path = dir / "damaged.log";
    write_bytes(path, damaged);
    const ser::Bytes extra = {'n', 'e', 'w'};
    const Opened first = open_drill_log(path, &extra);
    ASSERT_EQ(first.records.size(), intact);
    for (std::size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(first.records[i], payloads[i]) << "record " << i;
    }
    EXPECT_EQ(first.file_size, ends[intact]);

    const Opened second = open_drill_log(path);
    ASSERT_EQ(second.records.size(), intact + 1);
    EXPECT_EQ(second.records.back(), extra);
    EXPECT_EQ(second.file_size, ends[intact] + ser::kFrameSize + extra.size());
  }

  const std::vector<ser::Bytes> payloads = {
      {'a', 'b', 'c', 'd', 'e'}, {}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}};
  fs::path dir;
  std::vector<std::uint64_t> ends;  ///< record i spans [ends[i], ends[i+1])
  ser::Bytes bytes;
};

TEST(AppendLog, EveryTruncationOpensToTheIntactPrefix) {
  DrillLog d("drill_truncate");
  ASSERT_EQ(d.bytes.size(), d.ends.back());
  for (std::size_t len = 0; len <= d.bytes.size(); ++len) {
    std::size_t intact = 0;
    while (intact < d.payloads.size() && d.ends[intact + 1] <= len) ++intact;
    d.expect_prefix(ser::Bytes(d.bytes.begin(), d.bytes.begin() + len),
                    intact, "length " + std::to_string(len));
  }
}

TEST(AppendLog, EverySingleByteFlipOpensToTheIntactPrefix) {
  DrillLog d("drill_flip");
  for (std::size_t pos = 0; pos < d.bytes.size(); ++pos) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      ser::Bytes damaged = d.bytes;
      damaged[pos] ^= mask;
      // A flipped header resets the log; a flip inside record i keeps the
      // records before it.
      std::size_t intact = 0;
      while (intact < d.payloads.size() && d.ends[intact + 1] <= pos) {
        ++intact;
      }
      d.expect_prefix(damaged, intact,
                      "byte " + std::to_string(pos) + " mask " +
                          std::to_string(mask));
    }
  }
}

TEST(AppendLog, FramedFileRejectsEveryTruncationAndFlip) {
  const fs::path dir = fresh_dir("framed");
  const fs::path path = dir / "one.rec";
  const ser::Bytes payload = {'r', 'e', 's', 'u', 'l', 't'};
  ser::write_framed_file(path.string(), 0x1122334455667788ull, 3, payload);
  EXPECT_EQ(ser::read_framed_file(path.string(), 0x1122334455667788ull, 3),
            payload);
  const ser::Bytes good = file_bytes(path);
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(path, ser::Bytes(good.begin(), good.begin() + len));
    EXPECT_THROW(ser::read_framed_file(path.string(), 0x1122334455667788ull, 3),
                 std::runtime_error)
        << "length " << len;
  }
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    if (pos >= 12 && pos < 16) continue;  // the reserved word is not read
    ser::Bytes damaged = good;
    damaged[pos] ^= 0x40;
    write_bytes(path, damaged);
    EXPECT_THROW(ser::read_framed_file(path.string(), 0x1122334455667788ull, 3),
                 std::runtime_error)
        << "byte " << pos;
  }
  // Trailing bytes after the one record are corruption too.
  ser::Bytes longer = good;
  longer.push_back(0);
  write_bytes(path, longer);
  EXPECT_THROW(ser::read_framed_file(path.string(), 0x1122334455667788ull, 3),
               std::runtime_error);
}

// --- Failed writes ------------------------------------------------------

// Runs `body` in a forked child that ignores SIGXFSZ, so writes past
// RLIMIT_FSIZE fail with EFBIG (or come back short) instead of killing
// it. Returns the child's exit code.
int run_in_child(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    int code = 2;
    try {
      code = body();
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void set_file_size_limit(rlim_t soft) {
  rlimit lim{};
  ::getrlimit(RLIMIT_FSIZE, &lim);
  lim.rlim_cur = soft;
  ::setrlimit(RLIMIT_FSIZE, &lim);
}

// A pipe too big to fit under the limit set below.
reach::Flowpipe big_pipe() {
  reach::Flowpipe fp = fixed_pipe(5);
  for (int k = 0; k < 40; ++k) fp.step_sets.push_back(fp.step_sets[0]);
  return fp;
}

// An append that fails mid-record is cut back, so the records appended
// after it in the same run land at a record boundary and are read back.
TEST(PersistFiles, FailedCacheAppendKeepsLaterRecordsReachable) {
  const fs::path dir = fresh_dir("fsize_cache");
  const int code = run_in_child([&dir] {
    reach::FlowpipeCache cache(cache_config(dir));
    cache.insert(fixed_key(0), fixed_pipe(0));
    rlimit old{};
    ::getrlimit(RLIMIT_FSIZE, &old);
    set_file_size_limit(fs::file_size(dir / kLogName) + 40);
    bool threw = false;
    try {
      cache.insert(fixed_key(1), big_pipe());
    } catch (const std::runtime_error&) {
      threw = true;
    }
    set_file_size_limit(old.rlim_cur);
    cache.insert(fixed_key(2), fixed_pipe(2));
    return threw ? 0 : 1;
  });
  ASSERT_EQ(code, 0);

  reach::FlowpipeCache warm(cache_config(dir));
  EXPECT_EQ(warm.stats().disk_entries, 2u);
  for (const std::uint64_t i : {0, 2}) {
    const auto hit = warm.lookup(fixed_key(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(pipe_bytes(*hit), pipe_bytes(fixed_pipe(i)));
  }
  EXPECT_FALSE(warm.lookup(fixed_key(1)).has_value());
}

// A result file that cannot be written in full leaves the previous file
// in place, byte for byte.
TEST(PersistFiles, FailedResultSaveKeepsThePreviousFile) {
  const AccSearch s;
  const fs::path dir = fresh_dir("fsize_result");
  const std::string shard = (dir / "shard0.xis").string();
  const std::string result = (dir / "search.xir").string();
  core::ShardResult small = shard0(s);
  small.records.resize(2);
  core::save_shard_result_file(shard, small);
  core::InitialSetResult partial;
  partial.coverage = 0.5;
  core::save_initial_set_result_file(result, 7, partial);
  const ser::Bytes shard_before = file_bytes(shard);
  const ser::Bytes result_before = file_bytes(result);

  const core::ShardResult full = shard0(s);
  const core::InitialSetResult done = s.uninterrupted();
  const int code = run_in_child([&] {
    set_file_size_limit(64);
    int failures = 0;
    try {
      core::save_shard_result_file(shard, full);
    } catch (const std::runtime_error&) {
      ++failures;
    }
    try {
      core::save_initial_set_result_file(result, fingerprint(s), done);
    } catch (const std::runtime_error&) {
      ++failures;
    }
    return failures == 2 ? 0 : 1;
  });
  ASSERT_EQ(code, 0);

  EXPECT_EQ(file_bytes(shard), shard_before);
  EXPECT_EQ(file_bytes(result), result_before);
  EXPECT_EQ(core::load_shard_result_file(shard).records.size(), 2u);
  std::uint64_t fp = 0;
  EXPECT_EQ(core::load_initial_set_result_file(result, &fp).coverage, 0.5);
  EXPECT_EQ(fp, 7u);
  EXPECT_FALSE(fs::exists(shard + ".tmp"));
  EXPECT_FALSE(fs::exists(result + ".tmp"));
}

}  // namespace
}  // namespace dwv
