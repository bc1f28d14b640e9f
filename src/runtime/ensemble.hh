/**
 * @file
 * Sharded ensemble-execution engine.
 *
 * The paper's toolflow truncates the program at a breakpoint and runs
 * an *ensemble* of independent executions whose outcome counts feed the
 * chi-square machinery; the authors needed a cluster because ensembles
 * dominate the cost. The EnsembleEngine reproduces that fan-out on a
 * thread pool:
 *
 *  - the N trials are split into contiguous shards, one per available
 *    worker, and each shard runs on its own thread;
 *  - every trial m derives its own RNG stream from the master seed by
 *    trial index (Rng::split(m), collision-free — see rng.hh), never
 *    from the worker or shard it happens to land on, so results are
 *    bit-identical for any thread count, including 1;
 *  - per-shard results land in disjoint slices of a preallocated
 *    trial-ordered buffer (and per-shard histograms are merged in
 *    shard order), so the merge is deterministic by construction;
 *  - in SampleFinalState mode the truncated circuit is simulated ONCE,
 *    the final state is cached, and the N shots are multinomial-sampled
 *    from the exact outcome distribution via inverse-CDF binary search
 *    — re-running the circuit per shot is reserved for Resimulate mode,
 *    which stays exact for programs with mid-circuit measurement. The
 *    cache key is (breakpoint, seed) in general, but the breakpoint
 *    alone when the truncated prefix is *seed-free* — no measurement,
 *    no classically conditioned instruction, and resets only on
 *    qubits no earlier instruction touched — because such a prefix
 *    ends in the same state under every seed. Gathers of one
 *    breakpoint under many seeds (escalation rounds, qsa::locate
 *    probes that share a probe program, a session re-run under a new
 *    seed) then simulate it once and reuse its shot sampler.
 *    evictSeeded() drops only the entries of prefixes that are not
 *    seed-free, so an engine moved to a new seed keeps the rest;
 *  - in Resimulate mode the truncated circuit's *deterministic head*
 *    — the longest prefix containing no measurement, no conditional
 *    instruction, and only resets whose outcome is certain — is
 *    simulated once and cached per breakpoint; each trial then copies
 *    the head state and re-simulates only the nondeterministic tail.
 *    For the paper's measurement-free benchmarks the whole truncated
 *    program is head, collapsing a Resimulate ensemble's cost to one
 *    simulation plus N state copies; for semiclassical programs the
 *    per-trial cost is the region from the first measurement on;
 *  - every cache entry is built once: racers on one key wait for the
 *    first caller's build, so work counters (sim.*, cache hits and
 *    misses) are the same at any thread count.
 *
 * RNG stream layout (fixed; part of the reproducibility contract):
 *  - Resimulate: trial m uses Rng(seed).split(m) for both gate-level
 *    randomness and the truncating measurement. The cached head
 *    consumes no outcome-relevant randomness, and each trial discards
 *    exactly the draws the head's resets would have made, so trial
 *    outcomes are bit-identical to an uncached full re-simulation
 *    (up to reset outcomes whose probability is below the ~1e-12
 *    determinism tolerance).
 *  - SampleFinalState: the single prefix execution uses
 *    Rng(seed).split(0) — Rng(0).split(0) for a seed-free prefix, whose
 *    execution draws nothing outcome-relevant — and shot m draws its
 *    uniform from Rng(seed).split(m + 1) under the request's own seed.
 *    Only the prefix state is shared across seeds, so each seed's shots
 *    are bit-identical to those of an engine that saw no other seed.
 */

#ifndef QSA_RUNTIME_ENSEMBLE_HH
#define QSA_RUNTIME_ENSEMBLE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "runtime/pool.hh"
#include "sim/statevector.hh"

namespace qsa::runtime
{

/**
 * Precomputed split of a truncated circuit for Resimulate mode: the
 * deterministic head's final state (simulated once), the number of
 * RNG draws the head's resets would have consumed per trial, and the
 * nondeterministic tail each trial actually re-simulates. See the
 * file comment for the exactness contract.
 */
struct ResimPlan
{
    /** State after the deterministic head. */
    sim::StateVector headState;

    /** Per-trial RNG draws the head's resets would have made. */
    std::size_t headDraws = 0;

    /** Instructions after the head (possibly empty). */
    circuit::Circuit tail;

    /** Tensor-split stages; when set, trials run staged and the
     *  monolithic head above is a 1-qubit placeholder. */
    std::shared_ptr<const struct ResimStages> stages;

    explicit ResimPlan(unsigned num_qubits) : headState(num_qubits) {}
};

/**
 * Stage decomposition of a truncated circuit whose leading
 * instructions act only on the low `split` qubits, followed by a run
 * acting only on the high qubits, followed by a combining tail on the
 * full space — the shape of every swap-test probe (suspect prefix,
 * embedded reference prefix, ancilla-controlled-SWAP comparator).
 * Trials simulate the two halves on 2^split- and 2^(n-split)-sized
 * states and tensor them together only for the comparator
 * (StateVector::tensorWith), cutting per-trial cost from 2^n toward
 * 2^split + 2^(n-split) + |combo| full-space applies. RNG draw order
 * is the monolithic program order (low, then high, then combo), so
 * outcome streams match an unstaged run draw for draw.
 */
struct TensorStages
{
    /** Low-qubit count; the high block holds numQubits() - split. */
    unsigned split = 0;

    /** Leading instructions on qubits [0, split). */
    circuit::Circuit low;

    /** Following high-only run, indices shifted down by `split`. */
    circuit::Circuit high;

    /** Everything after, on the full qubit space. */
    circuit::Circuit combo;
};

/** Resimulate-mode head/tail splits of both tensor stages. */
struct ResimStages
{
    /** The stage decomposition the tails below were cut from. */
    std::shared_ptr<const TensorStages> layout;

    /** Deterministic-head state and per-trial draws of the low block. */
    sim::StateVector lowHead;
    std::size_t lowDraws = 0;
    circuit::Circuit lowTail;

    /** Same for the high block (shifted index space). */
    sim::StateVector highHead;
    std::size_t highDraws = 0;
    circuit::Circuit highTail;

    ResimStages(unsigned low_qubits, unsigned high_qubits)
        : lowHead(low_qubits), highHead(high_qubits)
    {
    }
};

/** How ensemble members are produced (assertions::EnsembleMode twin). */
enum class SampleMode
{
    /** One truncated-circuit simulation per trial. */
    Resimulate,

    /** Simulate the prefix once, multinomial-sample the shots. */
    SampleFinalState,
};

/** One ensemble request: where to truncate, what to measure, how. */
struct EnsembleSpec
{
    /** Breakpoint label the program is truncated at. */
    std::string breakpoint;

    /** Joint measurement qubit list (qubits[i] packs as bit i). */
    std::vector<unsigned> qubits;

    /** Number of trials. */
    std::size_t shots = 0;

    /** Trial generation mode. */
    SampleMode mode = SampleMode::SampleFinalState;

    /** Master seed; every trial gets a split stream (see file comment). */
    std::uint64_t seed = 0;
};

/**
 * Inverse-CDF sampler over a fixed discrete distribution: O(domain)
 * once to build, O(log domain) per draw — the multinomial shot sampler
 * behind SampleFinalState mode (the linear scan in Rng::discrete is
 * too slow at 2^width bins times millions of shots).
 */
class CdfSampler
{
  public:
    /** @param probs unnormalised non-negative weights, positive sum. */
    explicit CdfSampler(const std::vector<double> &probs);

    /** Map a uniform [0, 1) draw to a bin index. */
    std::size_t sample(double u) const;

  private:
    std::vector<double> cdf;
};

/**
 * See file comment. An engine is bound to one program; it may be used
 * concurrently from several threads (BatchRunner does), with the
 * prefix caches protected internally.
 */
/** Per-engine simulation options (fixed for the engine's lifetime, so
 *  every cache entry is built under one option set). */
struct EngineOptions
{
    /** Run the gate-fusion pass on every truncated prefix. */
    bool fuseGates = true;

    /**
     * Tensor-split hint: when non-zero, truncated prefixes whose
     * leading instructions separate into a low block on this many
     * qubits followed by a high-only block (the swap-probe shape) are
     * simulated half-by-half and tensored at the combining tail.
     * Prefixes without that structure fall back to monolithic
     * execution automatically.
     */
    unsigned tensorSplit = 0;
};

class EnsembleEngine
{
  public:
    /**
     * @param program the full instrumented program; must outlive the
     *        engine (held by reference)
     * @param num_threads worker threads for the shards: 0 = the
     *        process-wide shared pool, otherwise a dedicated pool of
     *        exactly that concurrency (1 = serial)
     * @param options per-engine simulation options
     */
    explicit EnsembleEngine(const circuit::Circuit &program,
                            unsigned num_threads = 0,
                            EngineOptions options = {});

    /**
     * Gather the ensemble: trial-ordered joint measurement outcomes
     * (entry m is trial m's value, identical for any thread count).
     */
    std::vector<std::uint64_t> gather(const EnsembleSpec &spec);

    /**
     * As gather(), but fold each shard into a local histogram and merge
     * the shard histograms in shard order — O(distinct outcomes)
     * memory instead of O(shots), for huge ensembles.
     */
    std::map<std::uint64_t, std::uint64_t>
    gatherHistogram(const EnsembleSpec &spec);

    /**
     * Drop the cached truncated circuits, prefix states, resimulation
     * head states, and shot samplers. The caches trade memory for
     * speed — a prefix or head state is a full 2^n statevector per
     * breakpoint — so long-lived sessions that sweep many breakpoints
     * can call this to bound the footprint.
     */
    void clearCache();

    /**
     * Drop the SampleFinalState prefix states and shot samplers of
     * prefixes that are not seed-free: each is keyed by the one seed
     * it was simulated under. Seed-free states and samplers stay, and
     * so do truncated circuits, tensor stages and Resimulate heads. A
     * caller that moves every later gather to a new seed
     * (AssertionChecker::reconfigure) calls this, so the engine holds
     * one seed's entries at a time. Not to be called while a gather
     * is in flight.
     */
    void evictSeeded();

    /**
     * The pool the shards run on; resolved (and for a dedicated pool,
     * spawned) on first use, so idle engines own no threads.
     */
    ThreadPool &pool();

  private:
    const circuit::Circuit *program;
    unsigned numThreads;
    EngineOptions options;
    std::once_flag poolOnce;
    std::unique_ptr<ThreadPool> ownedPool;
    ThreadPool *poolPtr = nullptr;

    std::mutex cacheMutex;

    /**
     * One in-flight-or-done cache entry. A future so a miss builds
     * OUTSIDE the cache mutex: concurrent gathers at distinct keys
     * build in parallel, while racers on the same key wait for the one
     * build instead of repeating it — so every build, and the work it
     * counts in sim.*, happens once per key whatever the thread count.
     * The claim id lets exception cleanup evict exactly its own entry
     * (not a successor's, re-claimed after a clearCache()).
     */
    template <class V>
    struct Slot
    {
        using Value = V;
        std::shared_future<V> future;
        std::uint64_t claim = 0;
    };

    /** Next claim id for cache slots; guarded by cacheMutex. */
    std::uint64_t nextClaim = 0;

    /**
     * Single-flight find-or-build over one of the caches below: a hit
     * returns the entry (waiting if its build is still in flight); a
     * miss claims the key, runs `build` outside the lock and publishes
     * the result to every waiter. `built` is set when this call ran
     * the build. Lookups take a tuple of references
     * (std::less<> keys), so a hit allocates nothing.
     */
    template <class Map, class Key, class Build>
    typename Map::mapped_type::Value
    findOrBuild(Map &cache, const Key &key, Build &&build, bool &built);

    /** A truncated circuit and whether its simulation is seed-free. */
    struct Prefix
    {
        std::shared_ptr<const circuit::Circuit> circuit;

        /** No measurement, no conditioned instruction, resets only on
         *  untouched qubits: the final state is the same under every
         *  seed (see the file comment). */
        bool seedFree = false;
    };

    /** Truncated circuits keyed by breakpoint label. */
    std::map<std::string, Slot<Prefix>, std::less<>> prefixCache;

    /**
     * Resimulate-mode head/tail splits keyed by breakpoint label.
     * Seed-independent: the head is deterministic by construction.
     */
    std::map<std::string, Slot<std::shared_ptr<const ResimPlan>>,
             std::less<>>
        resimCache;

    /**
     * SampleFinalState prefix execution records keyed by (breakpoint,
     * seed), with seed 0 standing for every seed when the prefix is
     * seed-free.
     */
    std::map<std::tuple<std::string, std::uint64_t>,
             Slot<std::shared_ptr<const circuit::ExecutionRecord>>,
             std::less<>>
        stateCache;

    /**
     * Built CdfSamplers keyed by (breakpoint, seed, qubits), the seed
     * read as in stateCache: repeated gathers of the same request skip
     * the O(2^n) marginalisation and CDF build, not just the prefix
     * simulation.
     */
    std::map<std::tuple<std::string, std::uint64_t,
                        std::vector<unsigned>>,
             Slot<std::shared_ptr<const CdfSampler>>, std::less<>>
        samplerCache;

    /**
     * Tensor-stage decompositions keyed by breakpoint; a null entry
     * records "this prefix does not split" so the scan runs once.
     */
    std::map<std::string, Slot<std::shared_ptr<const TensorStages>>,
             std::less<>>
        stagesCache;

    Prefix prefix(const std::string &breakpoint);

    std::shared_ptr<const TensorStages>
    tensorStages(const std::string &breakpoint);

    /** The cached prefix execution under a stateCache key seed. */
    std::shared_ptr<const circuit::ExecutionRecord>
    prefixState(const std::string &breakpoint,
                const circuit::Circuit &sliced, std::uint64_t seed);

    std::shared_ptr<const ResimPlan>
    resimPlan(const std::string &breakpoint);

    std::shared_ptr<const CdfSampler>
    shotSampler(const EnsembleSpec &spec);

    /** Run trials [lo, hi) of `spec`, writing out[m] for each m. */
    void runTrials(const EnsembleSpec &spec, const ResimPlan *plan,
                   const CdfSampler *sampler, std::size_t lo,
                   std::size_t hi, std::uint64_t *out) const;
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_ENSEMBLE_HH
