#include "core/search_shard.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/verdict.hpp"
#include "parallel/pool.hpp"
#include "parallel/work_steal.hpp"
#include "reach/append_log.hpp"
#include "reach/batch.hpp"
#include "reach/cache.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::core {

namespace {

namespace ser = reach::ser;

// --- File format constants ----------------------------------------------
// Every file uses the record frame of reach/append_log.hpp.
// Shard result file:  "DWVXISH1" one-record framed file, payload =
// ShardResult.
// Search result file: "DWVXIRS1" one-record framed file, payload =
// fingerprint + InitialSetResult.
// Checkpoint file:    "DWVCKPT1" magic + configuration-binding header,
// then full-state snapshots appended at round boundaries (an append
// log); the LAST intact snapshot wins.
constexpr std::uint64_t kShardMagic = 0x3148534958565744ull;   // DWVXISH1
constexpr std::uint64_t kResultMagic = 0x3153524958565744ull;  // DWVXIRS1
constexpr std::uint64_t kCkptMagic = 0x3154504b43565744ull;    // DWVCKPT1
constexpr std::uint32_t kFileVersion = 1;
constexpr std::uint32_t kCkptAllShards = 0xffffffffu;
// magic + version + shards + fingerprint + shard_index.
constexpr std::size_t kCkptHeaderSize = 8 + 4 + 4 + 8 + 4;

// An undecided frontier cell. `seq` is the heap sequence number (root 1,
// children 2s and 2s+1); `parent` is the parent cell's recorded symbolic
// flowpipe prefix (schedule tape included) when prefix reuse is active.
struct PendingCell {
  geom::Box box;
  std::size_t depth = 0;
  std::uint64_t seq = 0;
  std::shared_ptr<const reach::TmSymbolicPrefix> parent;
};

// The complete resumable search state: terminal records so far + the
// undecided frontier. The anytime counters are derived (recomputed on
// checkpoint load), kept incrementally so the progress coverage is a
// running sum — monotone within and across resumed runs.
struct EngineState {
  std::vector<ShardRecord> records;
  std::vector<PendingCell> pending;
  std::uint64_t calls = 0;
  double certified_volume = 0.0;
  std::size_t certified_cells = 0;
  std::size_t rejected_cells = 0;

  void note(const ShardRecord& r) {
    if (r.certified) {
      certified_volume += r.box.volume();
      ++certified_cells;
    } else {
      ++rejected_cells;
    }
  }
};

// Parent-prefix reuse needs the symbolic TmVerifier interface; unwrap one
// CachingVerifier layer if present (a within-search cache would never hit
// anyway — branch-and-refine visits each box exactly once).
const reach::TmVerifier* unwrap_tm(const reach::Verifier& verifier,
                                   bool reuse_parent_prefix) {
  if (!reuse_parent_prefix) return nullptr;
  const auto* tmv = dynamic_cast<const reach::TmVerifier*>(&verifier);
  if (tmv == nullptr) {
    if (const auto* cv =
            dynamic_cast<const reach::CachingVerifier*>(&verifier)) {
      tmv = dynamic_cast<const reach::TmVerifier*>(cv->inner().get());
    }
  }
  return tmv;
}

// --- Snapshot payload ---------------------------------------------------

void put_state(ser::Writer& w, const EngineState& st) {
  w.u64(st.calls);
  w.u64(st.records.size());
  for (const ShardRecord& r : st.records) {
    w.u64(r.seq);
    w.u8(r.certified ? 1 : 0);
    ser::put(w, r.box);
  }
  w.u64(st.pending.size());
  for (const PendingCell& c : st.pending) {
    w.u64(c.seq);
    w.u64(c.depth);
    ser::put(w, c.box);
    w.u8(c.parent != nullptr ? 1 : 0);
    if (c.parent != nullptr) ser::put(w, *c.parent);
  }
}

bool get_state(ser::Reader& r, EngineState& out) {
  out = EngineState{};
  out.calls = r.u64();
  std::uint64_t n = r.count(8 + 1 + 8);  // seq + flag + minimal box
  if (!r.ok()) return false;
  out.records.resize(static_cast<std::size_t>(n));
  for (ShardRecord& rec : out.records) {
    rec.seq = r.u64();
    const std::uint8_t cert = r.u8();
    if (!r.ok() || rec.seq == 0 || cert > 1) return false;
    rec.certified = cert != 0;
    if (!ser::get(r, rec.box)) return false;
    out.note(rec);
  }
  n = r.count(8 + 8 + 8 + 1);  // seq + depth + minimal box + flag
  if (!r.ok()) return false;
  out.pending.resize(static_cast<std::size_t>(n));
  for (PendingCell& c : out.pending) {
    c.seq = r.u64();
    c.depth = static_cast<std::size_t>(r.u64());
    if (!r.ok() || c.seq == 0 || c.depth > kMaxSearchDepth) return false;
    if (!ser::get(r, c.box)) return false;
    const std::uint8_t has_prefix = r.u8();
    if (!r.ok() || has_prefix > 1) return false;
    if (has_prefix != 0) {
      reach::TmSymbolicPrefix prefix;
      if (!ser::get(r, prefix)) return false;
      c.parent =
          std::make_shared<const reach::TmSymbolicPrefix>(std::move(prefix));
    }
  }
  return r.ok() && r.remaining() == 0;
}

// --- Checkpoint file ----------------------------------------------------
// An append log whose header binds it to one search configuration
// (fingerprint + shard layout), with one full-state snapshot per record.

ser::Bytes checkpoint_header(std::uint64_t fingerprint, std::uint32_t shards,
                             std::uint32_t shard_index) {
  ser::Writer w;
  w.u64(kCkptMagic);
  w.u32(kFileVersion);
  w.u32(shards);
  w.u64(fingerprint);
  w.u32(shard_index);
  return w.take();
}

// Opens (or creates) the checkpoint at `path` and loads its LAST snapshot
// whose frame and payload both validate into `st`, setting `loaded`; the
// log cuts off anything after it (the torn tail of a kill -9 mid-append).
// A file of another format or configuration throws.
ser::AppendLog open_checkpoint(const std::string& path,
                               const ser::Bytes& header, EngineState& st,
                               bool& loaded) {
  constexpr std::size_t kFormatBytes = 8 + 4;  // magic + version
  ser::AppendLog log(
      path, header,
      [&](const std::uint8_t* data, std::size_t size) {
        if (size < kCkptHeaderSize) {
          throw std::runtime_error("checkpoint file " + path +
                                   " is truncated mid-header; delete it to "
                                   "restart the search");
        }
        if (!std::equal(header.begin(), header.begin() + kFormatBytes,
                        data)) {
          throw std::runtime_error(path + " is not a dwv checkpoint file");
        }
        if (!std::equal(header.begin() + kFormatBytes, header.end(),
                        data + kFormatBytes)) {
          throw std::runtime_error(
              "checkpoint file " + path +
              " was written by a different search configuration (verifier, "
              "controller, spec, depth, or shard layout); delete it to "
              "restart");
        }
        return true;
      },
      [&](const std::uint8_t* payload, std::size_t len, std::uint64_t) {
        ser::Reader r(payload, len);
        EngineState cand;
        if (!get_state(r, cand)) return false;
        st = std::move(cand);
        loaded = true;
        return true;
      });
  log.unmap();  // a checkpoint is never read back within a run
  return log;
}

void append_snapshot(ser::AppendLog& log, const EngineState& st) {
  ser::Writer w;
  put_state(w, st);
  log.append(w.bytes());
}

// --- Engine -------------------------------------------------------------

// One search's fixed inputs, shared by every frontier run.
struct Search {
  const reach::Verifier& verifier;
  const ode::ReachAvoidSpec& spec;
  const nn::Controller& ctrl;
  const ShardSearchOptions& opt;
  // Non-null when parent-prefix reuse is on and the verifier (or the
  // CachingVerifier it wraps) is a TmVerifier.
  const reach::TmVerifier* tmv;
};

// Where one run_frontier call stops: cells deeper than `max_depth`, and
// every cell popped once `budget` has counted `budget_limit` claims, go
// to the leftovers unverified.
struct FrontierLimits {
  std::size_t threads;
  std::size_t max_depth;
  std::atomic<std::size_t>& budget;
  std::size_t budget_limit;
};

struct FrontierOut {
  std::vector<ShardRecord> records;
  std::vector<PendingCell> leftovers;
  std::uint64_t calls = 0;
};

// The one X_I cell body: a work-stealing frontier run that verifies cells
// in lane-batched groups, then certifies, bisects or rejects each.
// Deterministic despite the scheduling: every cell carries its heap
// sequence number and the terminal records are merged in sequence order
// afterwards (finalize_records). The limits shunt cells to the leftover
// frontier so the pool drains to a quiescent point: the depth limit
// expands the deterministic shard prefix one level per call, the round
// budget bounds a round for snapshots and progress reports. Which cells
// land in which round is scheduling-dependent; the terminal records are
// not.
void run_frontier(const Search& s, std::vector<PendingCell> roots,
                  const FrontierLimits& lim, FrontierOut& out) {
  const reach::BatchVerifier bv(&s.verifier, s.opt.base.batch);
  const std::size_t width = bv.batch();

  std::vector<std::vector<ShardRecord>> records(lim.threads);
  std::vector<std::vector<PendingCell>> leftovers(lim.threads);
  std::atomic<std::size_t> calls{0};

  const auto body = [&](PendingCell* first,
                        parallel::WorkStealContext<PendingCell*>& ctx) {
    const auto shunt = [&](PendingCell* c) {
      leftovers[ctx.worker()].push_back(std::move(*c));
      delete c;
    };
    if (first->depth > lim.max_depth ||
        lim.budget.fetch_add(1, std::memory_order_relaxed) >=
            lim.budget_limit) {
      shunt(first);
      return;
    }
    std::vector<PendingCell*> group{first};
    PendingCell* extra = nullptr;
    while (group.size() < width && ctx.try_pop(extra)) {
      if (extra->depth > lim.max_depth) {
        shunt(extra);
        continue;
      }
      // Extras ride the group past the budget check (overshoot of at most
      // one batch width per round — the cadence is approximate by design).
      lim.budget.fetch_add(1, std::memory_order_relaxed);
      group.push_back(extra);
    }

    // The symbolic prefix-reuse path goes through the TM lockstep driver,
    // which replays each cell's own parent prefix per lane; everything
    // else goes through the batch engine.
    std::vector<reach::Flowpipe> fps(group.size());
    std::vector<std::shared_ptr<const reach::TmSymbolicPrefix>> prefixes(
        s.tmv != nullptr ? group.size() : 0);
    if (s.tmv != nullptr) {
      std::vector<reach::TmBatchJob> jobs;
      jobs.reserve(group.size());
      for (const PendingCell* c : group)
        jobs.push_back({c->box, &s.ctrl, c->parent.get()});
      std::vector<reach::TmComputeResult> rs =
          s.tmv->compute_symbolic_batch(jobs, group.size());
      for (std::size_t g = 0; g < group.size(); ++g) {
        fps[g] = std::move(rs[g].fp);
        prefixes[g] = std::move(rs[g].prefix);
      }
    } else {
      std::vector<reach::BatchJob> jobs;
      jobs.reserve(group.size());
      for (const PendingCell* c : group) jobs.push_back({c->box, &s.ctrl});
      fps = bv.compute(jobs);
    }

    for (std::size_t g = 0; g < group.size(); ++g) {
      PendingCell* cell = group[g];
      const FlowpipeFacts facts = analyze_flowpipe(fps[g], s.spec);
      const bool safe_ok = !s.opt.base.check_safety || facts.safe_certified;
      const bool certify = fps[g].valid && safe_ok && facts.goal_certified;
      if (certify) {
        records[ctx.worker()].push_back(
            {cell->seq, std::move(cell->box), true});
      } else if (cell->depth < s.opt.base.max_depth) {
        auto [lo, hi] = cell->box.bisect();
        std::shared_ptr<const reach::TmSymbolicPrefix> prefix;
        if (s.tmv != nullptr) prefix = std::move(prefixes[g]);
        ctx.spawn(new PendingCell{std::move(lo), cell->depth + 1,
                                  2 * cell->seq, prefix});
        ctx.spawn(new PendingCell{std::move(hi), cell->depth + 1,
                                  2 * cell->seq + 1, std::move(prefix)});
      } else {
        records[ctx.worker()].push_back(
            {cell->seq, std::move(cell->box), false});
      }
      delete cell;
    }
    calls.fetch_add(group.size(), std::memory_order_relaxed);
  };

  std::vector<PendingCell*> rootp;
  rootp.reserve(roots.size());
  for (PendingCell& c : roots) rootp.push_back(new PendingCell(std::move(c)));
  parallel::work_steal_run(lim.threads, rootp, body);

  for (auto& r : records) {
    out.records.insert(out.records.end(), std::make_move_iterator(r.begin()),
                       std::make_move_iterator(r.end()));
  }
  for (auto& l : leftovers) {
    out.leftovers.insert(out.leftovers.end(),
                         std::make_move_iterator(l.begin()),
                         std::make_move_iterator(l.end()));
  }
  out.calls = calls.load(std::memory_order_relaxed);
}

// Folds one run's records and leftovers back into the state; the pending
// frontier is kept in sequence order, so anything dealt from it next is a
// pure function of the search configuration.
void absorb(EngineState& st, std::vector<FrontierOut>& outs) {
  for (FrontierOut& o : outs) {
    st.calls += o.calls;
    for (ShardRecord& r : o.records) {
      st.records.push_back(std::move(r));
      st.note(st.records.back());
    }
    st.pending.insert(st.pending.end(),
                      std::make_move_iterator(o.leftovers.begin()),
                      std::make_move_iterator(o.leftovers.end()));
  }
  std::sort(st.pending.begin(), st.pending.end(),
            [](const PendingCell& a, const PendingCell& b) {
              return a.seq < b.seq;
            });
}

std::size_t shard_workers(const ShardSearchOptions& opt) {
  return opt.shard_index == ShardSearchOptions::kAllShards ? opt.shards : 1;
}

// Deterministic expansion of the shared tree prefix by one level, on the
// whole in-process thread budget: every process verifies the same cells,
// so the next level's frontier — and the round-robin shard partition of
// it — does not depend on scheduling.
void expand_prefix_level(const Search& s, EngineState& st) {
  std::atomic<std::size_t> budget{0};
  const FrontierLimits lim{
      parallel::resolve_threads(s.opt.base.threads) * shard_workers(s.opt),
      st.pending.front().depth, budget,
      std::numeric_limits<std::size_t>::max()};
  std::vector<FrontierOut> outs(1);
  run_frontier(s, std::move(st.pending), lim, outs[0]);
  st.pending.clear();
  absorb(st, outs);
}

// One round: deal the frontier round-robin to the shard workers (each a
// std::thread driving its own work-stealing pool), run them against a
// shared cell budget, and fold records and leftovers back into the state.
void run_round(const Search& s, EngineState& st, std::size_t budget_limit) {
  const std::size_t nworkers = shard_workers(s.opt);
  std::vector<std::vector<PendingCell>> deal(nworkers);
  for (std::size_t i = 0; i < st.pending.size(); ++i) {
    deal[i % nworkers].push_back(std::move(st.pending[i]));
  }
  st.pending.clear();

  std::atomic<std::size_t> budget{0};
  const FrontierLimits lim{parallel::resolve_threads(s.opt.base.threads),
                           s.opt.base.max_depth, budget, budget_limit};
  std::vector<FrontierOut> outs(nworkers);
  const auto run_one = [&](std::size_t w) {
    run_frontier(s, std::move(deal[w]), lim, outs[w]);
  };
  std::vector<std::thread> threads;
  threads.reserve(nworkers - 1);
  for (std::size_t w = 1; w < nworkers; ++w) threads.emplace_back(run_one, w);
  run_one(0);
  for (std::thread& t : threads) t.join();
  absorb(st, outs);
}

ShardSearchProgress make_progress(const ode::ReachAvoidSpec& spec,
                                  const EngineState& st, std::size_t rounds) {
  ShardSearchProgress p;
  const double total = spec.x0.volume();
  p.coverage = total > 0.0 ? st.certified_volume / total : 0.0;
  p.certified_cells = st.certified_cells;
  p.rejected_cells = st.rejected_cells;
  p.pending_cells = st.pending.size();
  p.verifier_calls = static_cast<std::size_t>(st.calls);
  p.rounds = rounds;
  return p;
}

EngineState run_engine(const reach::Verifier& verifier,
                       const ode::ReachAvoidSpec& spec,
                       const nn::Controller& ctrl,
                       const ShardSearchOptions& opt) {
  validate_search_depth(opt.base.max_depth);
  if (opt.shards == 0) {
    throw std::invalid_argument("ShardSearchOptions::shards must be >= 1");
  }
  const bool one_shard = opt.shard_index != ShardSearchOptions::kAllShards;
  if (one_shard && opt.shard_index >= opt.shards) {
    throw std::invalid_argument("ShardSearchOptions::shard_index " +
                                std::to_string(opt.shard_index) +
                                " out of range for " +
                                std::to_string(opt.shards) + " shards");
  }
  const Search s{verifier, spec, ctrl, opt,
                 unwrap_tm(verifier, opt.base.reuse_parent_prefix)};

  EngineState st;
  bool resumed = false;
  std::optional<ser::AppendLog> ckpt;
  if (!opt.checkpoint_file.empty()) {
    ckpt.emplace(open_checkpoint(
        opt.checkpoint_file,
        checkpoint_header(
            xi_search_fingerprint(verifier, spec, ctrl, opt.base),
            static_cast<std::uint32_t>(opt.shards),
            one_shard ? static_cast<std::uint32_t>(opt.shard_index)
                      : kCkptAllShards),
        st, resumed));
  }

  if (!resumed) {
    st.pending.push_back({spec.x0, 0, 1, nullptr});
    // One shard has nothing to partition, so K = 1 skips the expansion.
    if (opt.shards > 1) {
      const std::size_t grain = std::max<std::size_t>(opt.prefix_grain, 1);
      while (!st.pending.empty() && st.pending.size() < opt.shards * grain) {
        expand_prefix_level(s, st);
      }
    }
    if (one_shard) {
      // Round-robin partition of the deterministic prefix frontier; the
      // shared prefix records/calls are reported by shard 0 only, so the
      // merged totals equal a single-process run.
      std::vector<PendingCell> mine;
      for (std::size_t i = 0; i < st.pending.size(); ++i) {
        if (i % opt.shards == opt.shard_index) {
          mine.push_back(std::move(st.pending[i]));
        }
      }
      if (opt.shard_index != 0) {
        st = EngineState{};
      }
      st.pending = std::move(mine);
    }
    if (ckpt) append_snapshot(*ckpt, st);
  }

  const bool bounded = ckpt.has_value() || opt.progress != nullptr;
  const std::size_t budget_limit =
      bounded ? std::max<std::size_t>(opt.checkpoint_every, 1)
              : std::numeric_limits<std::size_t>::max();
  std::size_t rounds = 0;
  while (!st.pending.empty()) {
    run_round(s, st, budget_limit);
    ++rounds;
    if (ckpt) append_snapshot(*ckpt, st);
    if (opt.progress && !opt.progress(make_progress(spec, st, rounds))) {
      break;  // anytime cancel: st holds a sound partial result
    }
  }
  return st;
}

// Heap sequence number order (= breadth-first emission order): the one
// order of the terminal records that no thread count or completion timing
// can change.
void sort_by_seq(std::vector<ShardRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const ShardRecord& a, const ShardRecord& b) {
              return a.seq < b.seq;
            });
}

// The ordered-replay finalizer shared with merge_shard_results: sort the
// terminal records by sequence number and accumulate volumes in that
// order, reproducing every bit of search_initial_set's coverage sum.
InitialSetResult finalize_records(std::vector<ShardRecord> records,
                                  double total_volume, std::uint64_t calls) {
  sort_by_seq(records);
  InitialSetResult res;
  res.verifier_calls = static_cast<std::size_t>(calls);
  double certified_volume = 0.0;
  for (ShardRecord& r : records) {
    if (r.certified) {
      certified_volume += r.box.volume();
      res.certified.push_back(std::move(r.box));
    } else {
      res.rejected.push_back(std::move(r.box));
    }
  }
  res.coverage = total_volume > 0.0 ? certified_volume / total_volume : 0.0;
  return res;
}

}  // namespace

std::uint64_t xi_search_fingerprint(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& base) {
  // Caching never changes bits, so a cached and an uncached run of the
  // same search share a fingerprint (and produce identical result files).
  const reach::Verifier* inner = &verifier;
  if (const auto* cv =
          dynamic_cast<const reach::CachingVerifier*>(&verifier)) {
    inner = cv->inner().get();
  }
  ser::Writer w;
  w.str(inner->name());
  w.u64(inner->cache_salt());
  w.str(ctrl.describe());
  const linalg::Vec theta = ctrl.params();
  w.u64(theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) w.f64(theta[i]);
  ser::put(w, spec.x0);
  ser::put(w, spec.goal);
  ser::put(w, spec.unsafe);
  w.u64(spec.goal_dims.size());
  for (const std::size_t d : spec.goal_dims) w.u64(d);
  w.u64(spec.unsafe_dims.size());
  for (const std::size_t d : spec.unsafe_dims) w.u64(d);
  w.f64(spec.delta);
  w.u64(spec.steps);
  ser::put(w, spec.state_bounds);
  w.u8(spec.stop_at_goal ? 1 : 0);
  w.u64(base.max_depth);
  w.u8(base.check_safety ? 1 : 0);
  w.u8(base.reuse_parent_prefix ? 1 : 0);
  return ser::checksum64(w.bytes().data(), w.bytes().size());
}

InitialSetResult search_initial_set_sharded(const reach::Verifier& verifier,
                                            const ode::ReachAvoidSpec& spec,
                                            const nn::Controller& ctrl,
                                            const ShardSearchOptions& opt) {
  if (opt.shard_index != ShardSearchOptions::kAllShards) {
    throw std::invalid_argument(
        "search_initial_set_sharded runs every shard; use "
        "search_initial_set_shard for a single-shard (multi-process) run");
  }
  EngineState st = run_engine(verifier, spec, ctrl, opt);
  return finalize_records(std::move(st.records), spec.x0.volume(), st.calls);
}

InitialSetResult search_initial_set(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& opt) {
  ShardSearchOptions sopt;
  sopt.base = opt;
  return search_initial_set_sharded(verifier, spec, ctrl, sopt);
}

ShardResult search_initial_set_shard(const reach::Verifier& verifier,
                                     const ode::ReachAvoidSpec& spec,
                                     const nn::Controller& ctrl,
                                     const ShardSearchOptions& opt) {
  if (opt.shard_index == ShardSearchOptions::kAllShards) {
    throw std::invalid_argument(
        "search_initial_set_shard requires an explicit shard_index");
  }
  ShardResult sr;
  sr.fingerprint = xi_search_fingerprint(verifier, spec, ctrl, opt.base);
  sr.shards = static_cast<std::uint32_t>(opt.shards);
  sr.shard_index = static_cast<std::uint32_t>(opt.shard_index);
  sr.includes_prefix = opt.shard_index == 0;
  EngineState st = run_engine(verifier, spec, ctrl, opt);
  sr.complete = st.pending.empty();
  sr.verifier_calls = st.calls;
  // Completion order varies with the thread count; sequence order makes
  // the shard file a pure function of the search.
  sr.records = std::move(st.records);
  sort_by_seq(sr.records);
  return sr;
}

InitialSetResult merge_shard_results(const ode::ReachAvoidSpec& spec,
                                     std::vector<ShardResult> parts) {
  if (parts.empty()) {
    throw std::runtime_error("merge_shard_results: no shard results");
  }
  const std::uint64_t fingerprint = parts.front().fingerprint;
  const std::uint32_t shards = parts.front().shards;
  if (parts.size() != shards) {
    throw std::runtime_error(
        "merge_shard_results: " + std::to_string(parts.size()) +
        " parts for a " + std::to_string(shards) + "-shard search");
  }
  std::vector<char> seen(shards, 0);
  for (const ShardResult& p : parts) {
    if (p.fingerprint != fingerprint || p.shards != shards) {
      throw std::runtime_error(
          "merge_shard_results: parts come from different search "
          "configurations");
    }
    if (p.shard_index >= shards || seen[p.shard_index] != 0) {
      throw std::runtime_error(
          "merge_shard_results: missing or duplicate shard index " +
          std::to_string(p.shard_index));
    }
    seen[p.shard_index] = 1;
    if (!p.complete) {
      throw std::runtime_error("merge_shard_results: shard " +
                               std::to_string(p.shard_index) +
                               " is incomplete (cancelled mid-search)");
    }
    if (p.includes_prefix != (p.shard_index == 0)) {
      throw std::runtime_error(
          "merge_shard_results: prefix records must come from shard 0 "
          "exactly");
    }
  }
  std::vector<ShardRecord> records;
  std::uint64_t calls = 0;
  for (ShardResult& p : parts) {
    calls += p.verifier_calls;
    records.insert(records.end(), std::make_move_iterator(p.records.begin()),
                   std::make_move_iterator(p.records.end()));
  }
  // Terminal cells are distinct tree nodes, so sequence numbers are
  // unique; a duplicate means overlapping parts (e.g. shard files from
  // two runs whose trees overlap, which equal fingerprints should have
  // ruled out — treat it as corruption, not silently double-counted
  // volume).
  std::vector<std::uint64_t> seqs;
  seqs.reserve(records.size());
  for (const ShardRecord& r : records) seqs.push_back(r.seq);
  std::sort(seqs.begin(), seqs.end());
  if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
    throw std::runtime_error(
        "merge_shard_results: duplicate terminal cell across parts");
  }
  return finalize_records(std::move(records), spec.x0.volume(), calls);
}

void put(ser::Writer& w, const ShardResult& v) {
  w.u64(v.fingerprint);
  w.u32(v.shards);
  w.u32(v.shard_index);
  w.u8(v.includes_prefix ? 1 : 0);
  w.u8(v.complete ? 1 : 0);
  w.u64(v.verifier_calls);
  w.u64(v.records.size());
  for (const ShardRecord& r : v.records) {
    w.u64(r.seq);
    w.u8(r.certified ? 1 : 0);
    ser::put(w, r.box);
  }
}

bool get(ser::Reader& r, ShardResult& out) {
  out = ShardResult{};
  out.fingerprint = r.u64();
  out.shards = r.u32();
  out.shard_index = r.u32();
  const std::uint8_t prefix = r.u8();
  const std::uint8_t complete = r.u8();
  out.verifier_calls = r.u64();
  if (!r.ok() || prefix > 1 || complete > 1 || out.shards == 0 ||
      out.shard_index >= out.shards) {
    r.fail();
    return false;
  }
  out.includes_prefix = prefix != 0;
  out.complete = complete != 0;
  const std::uint64_t n = r.count(8 + 1 + 8);
  if (!r.ok()) return false;
  out.records.resize(static_cast<std::size_t>(n));
  for (ShardRecord& rec : out.records) {
    rec.seq = r.u64();
    const std::uint8_t cert = r.u8();
    if (!r.ok() || rec.seq == 0 || cert > 1) {
      r.fail();
      return false;
    }
    rec.certified = cert != 0;
    if (!ser::get(r, rec.box)) return false;
  }
  return r.ok();
}

void save_shard_result_file(const std::string& path, const ShardResult& v) {
  ser::Writer w;
  put(w, v);
  ser::write_framed_file(path, kShardMagic, kFileVersion, w.bytes());
}

ShardResult load_shard_result_file(const std::string& path) {
  const ser::Bytes payload =
      ser::read_framed_file(path, kShardMagic, kFileVersion);
  ser::Reader r(payload);
  ShardResult out;
  if (!get(r, out) || r.remaining() != 0) {
    throw std::runtime_error(path + ": malformed shard result payload");
  }
  return out;
}

void save_initial_set_result_file(const std::string& path,
                                  std::uint64_t fingerprint,
                                  const InitialSetResult& v) {
  ser::Writer w;
  w.u64(fingerprint);
  put(w, v);
  ser::write_framed_file(path, kResultMagic, kFileVersion, w.bytes());
}

InitialSetResult load_initial_set_result_file(const std::string& path,
                                              std::uint64_t* fingerprint) {
  const ser::Bytes payload =
      ser::read_framed_file(path, kResultMagic, kFileVersion);
  ser::Reader r(payload);
  const std::uint64_t fp = r.u64();
  InitialSetResult out;
  if (!get(r, out) || r.remaining() != 0) {
    throw std::runtime_error(path + ": malformed search result payload");
  }
  if (fingerprint != nullptr) *fingerprint = fp;
  return out;
}

}  // namespace dwv::core
