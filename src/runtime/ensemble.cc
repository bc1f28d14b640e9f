/**
 * @file
 * EnsembleEngine implementation.
 */

#include "runtime/ensemble.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "circuit/fusion.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::runtime
{

namespace
{

/** Contiguous trial range [lo, hi) of shard s out of num_shards. */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t s, std::size_t num_shards, std::size_t n)
{
    const std::size_t base = n / num_shards;
    const std::size_t rem = n % num_shards;
    const std::size_t lo = s * base + std::min(s, rem);
    return {lo, lo + base + (s < rem ? 1 : 0)};
}

/**
 * Reset outcomes at least this certain are treated as deterministic
 * when extending a Resimulate head. An uncached run taking the other
 * branch is below this probability per reset — the quantified slack
 * in the head cache's bit-identity contract (ensemble.hh).
 */
constexpr double kDeterministicTol = 1e-12;

/**
 * Simulate the deterministic head of `circ` into `state` (which must
 * start as |0...0> on at least circ.numQubits()): unitary gates and
 * markers always; resets only when the current state fixes their
 * implicit measurement outcome; stop at the first Measure or
 * classically-conditioned instruction. Returns the head length;
 * `draws` receives the per-trial RNG draws the head's resets would
 * have consumed.
 */
std::size_t
extendDeterministicHead(const circuit::Circuit &circ,
                        sim::StateVector &state, std::size_t &draws)
{
    const auto &insts = circ.instructions();
    std::size_t head = 0;
    for (; head < insts.size(); ++head) {
        const circuit::Instruction &inst = insts[head];
        if (inst.kind == circuit::GateKind::Measure ||
            !inst.condLabel.empty())
            break;
        if (inst.kind == circuit::GateKind::PrepZ) {
            const unsigned q = inst.targets[0];
            const double p1 = state.probabilityOne(q);
            if (p1 > kDeterministicTol && p1 < 1.0 - kDeterministicTol)
                break; // genuinely random reset: tail territory
            const unsigned outcome = p1 >= 0.5 ? 1 : 0;
            // One bernoulli draw the uncached run would have made.
            ++draws;
            state.projectQubit(q, outcome, outcome ? p1 : 1.0 - p1);
            if (outcome != (inst.bit & 1))
                state.applyGate(sim::Mat2{0.0, 1.0, 1.0, 0.0}, q);
            continue;
        }
        circuit::applyUnitaryInstruction(circ, inst, state);
    }
    return head;
}

/**
 * True when simulating `circ` from |0...0> consumes no
 * outcome-relevant randomness, so its final state is the same under
 * every seed: no measurement, no classically conditioned instruction,
 * and resets only on qubits no earlier instruction touched (such a
 * qubit is still |0>, so the reset's implicit measurement is
 * certain).
 */
bool
seedFree(const circuit::Circuit &circ)
{
    std::vector<char> touched(circ.numQubits(), 0);
    for (const circuit::Instruction &inst : circ.instructions()) {
        if (inst.kind == circuit::GateKind::Measure ||
            !inst.condLabel.empty())
            return false;
        if (inst.kind == circuit::GateKind::PrepZ &&
            touched[inst.targets[0]])
            return false;
        for (unsigned q : inst.targets)
            touched[q] = 1;
        for (unsigned q : inst.controls)
            touched[q] = 1;
    }
    return true;
}

/**
 * Scan a truncated circuit for the tensor-split shape: a maximal
 * leading run touching only qubits < split, then a maximal run
 * touching only qubits >= split, then the combining remainder.
 * Returns null when either block is empty (nothing to stage).
 * Qubit-free markers bind to the phase they appear in.
 */
std::shared_ptr<const TensorStages>
buildTensorStages(const circuit::Circuit &prefix, unsigned split)
{
    const unsigned total = prefix.numQubits();
    if (split == 0 || split >= total)
        return nullptr;

    const auto spanOf = [](const circuit::Instruction &inst) {
        std::vector<unsigned> span = inst.targets;
        span.insert(span.end(), inst.controls.begin(),
                    inst.controls.end());
        return span;
    };
    const auto onlyBelow = [&](const circuit::Instruction &inst,
                               unsigned bound, unsigned base) {
        const auto span = spanOf(inst);
        if (span.empty())
            return true; // markers bind to the current phase
        return std::all_of(span.begin(), span.end(), [&](unsigned q) {
            return q >= base && q < bound;
        });
    };

    const auto &insts = prefix.instructions();
    std::size_t low_end = 0;
    while (low_end < insts.size() &&
           onlyBelow(insts[low_end], split, 0))
        ++low_end;
    std::size_t high_end = low_end;
    while (high_end < insts.size() &&
           onlyBelow(insts[high_end], total, split))
        ++high_end;
    if (low_end == 0 || high_end == low_end)
        return nullptr;

    auto stages = std::make_shared<TensorStages>();
    stages->split = split;
    stages->low = circuit::Circuit(split);
    stages->high = circuit::Circuit(total - split);
    stages->combo = prefix.sliceRange(high_end, insts.size());
    for (std::size_t i = 0; i < low_end; ++i) {
        circuit::Instruction copy = insts[i];
        if (copy.kind == circuit::GateKind::Unitary)
            copy.matrixId =
                stages->low.addMatrix(prefix.matrix(copy.matrixId));
        stages->low.append(copy);
    }
    for (std::size_t i = low_end; i < high_end; ++i) {
        circuit::Instruction copy = insts[i];
        for (unsigned &q : copy.targets)
            q -= split;
        for (unsigned &q : copy.controls)
            q -= split;
        if (copy.kind == circuit::GateKind::Unitary)
            copy.matrixId =
                stages->high.addMatrix(prefix.matrix(copy.matrixId));
        stages->high.append(copy);
    }
    return stages;
}

} // anonymous namespace

// --- CdfSampler ------------------------------------------------------------

CdfSampler::CdfSampler(const std::vector<double> &probs)
{
    panic_if(probs.empty(), "CdfSampler needs a non-empty distribution");
    cdf.resize(probs.size());
    double running = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        panic_if(probs[i] < 0.0 || std::isnan(probs[i]),
                 "CdfSampler weights must be non-negative");
        running += probs[i];
        cdf[i] = running;
    }
    panic_if(running <= 0.0,
             "CdfSampler weights must have a positive sum");
}

std::size_t
CdfSampler::sample(double u) const
{
    const double v = u * cdf.back();
    std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), v) - cdf.begin());
    if (idx >= cdf.size()) {
        // u * total rounded up to total itself; walk back to the last
        // positive-width bin. upper_bound otherwise never lands on a
        // zero-width (zero-probability) bin.
        idx = cdf.size() - 1;
        while (idx > 0 && cdf[idx] == cdf[idx - 1])
            --idx;
    }
    return idx;
}

// --- EnsembleEngine --------------------------------------------------------

EnsembleEngine::EnsembleEngine(const circuit::Circuit &prog,
                               unsigned num_threads,
                               EngineOptions opts)
    : program(&prog), numThreads(num_threads), options(opts)
{
}

ThreadPool &
EnsembleEngine::pool()
{
    // Deferred so constructing an engine (or an AssertionChecker that
    // never checks anything) spawns no threads and does not
    // instantiate the shared pool.
    std::call_once(poolOnce, [this] {
        poolPtr = &ThreadPool::resolve(numThreads, ownedPool);
    });
    return *poolPtr;
}

template <class Map, class Key, class Build>
typename Map::mapped_type::Value
EnsembleEngine::findOrBuild(Map &cache, const Key &key, Build &&build,
                            bool &built)
{
    using Value = typename Map::mapped_type::Value;
    // Find-or-claim under the lock, build outside it. The promise is
    // made only on a miss, so a hit costs a lookup and two reference
    // counts.
    std::shared_future<Value> future;
    std::optional<std::promise<Value>> promise;
    std::uint64_t claim = 0;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = cache.find(key);
        if (it != cache.end()) {
            future = it->second.future;
        } else {
            promise.emplace();
            future = promise->get_future().share();
            claim = ++nextClaim;
            cache.emplace(typename Map::key_type(key),
                          typename Map::mapped_type{future, claim});
        }
    }
    built = promise.has_value();
    if (built) {
        try {
            promise->set_value(build());
        } catch (...) {
            // Library errors fatal/panic rather than throw, but e.g.
            // bad_alloc can still unwind here: hand racers the
            // exception and drop the entry so later calls retry
            // instead of hitting a broken promise forever. Evict only
            // our own entry — a clearCache() plus re-claim may have
            // installed a successor under the same key.
            promise->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(cacheMutex);
            auto it = cache.find(key);
            if (it != cache.end() && it->second.claim == claim)
                cache.erase(it);
            throw;
        }
    }
    return future.get();
}

EnsembleEngine::Prefix
EnsembleEngine::prefix(const std::string &breakpoint)
{
    // Fusing here means every downstream consumer — prefix
    // simulations, resimulation heads and tails, samplers — sees the
    // fused program, so the fused circuits slot into the prefix/head
    // caches by construction.
    bool built = false;
    Prefix out = findOrBuild(prefixCache, breakpoint, [&] {
        circuit::Circuit sliced = program->prefixUpTo(breakpoint);
        if (options.fuseGates) {
            circuit::FusionStats fusion;
            sliced = circuit::fuseGates(sliced, &fusion);
            QSA_OBS_COUNTER("sim.fused_gates", fusion.fusedGates);
        }
        Prefix p;
        p.seedFree = seedFree(sliced);
        p.circuit =
            std::make_shared<const circuit::Circuit>(std::move(sliced));
        return p;
    }, built);
    if (built)
        QSA_OBS_COUNTER("runtime.prefix_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.prefix_cache.hits", 1);
    return out;
}

std::shared_ptr<const TensorStages>
EnsembleEngine::tensorStages(const std::string &breakpoint)
{
    if (options.tensorSplit == 0)
        return nullptr;
    bool built = false;
    return findOrBuild(stagesCache, breakpoint, [&] {
        auto stages = buildTensorStages(*prefix(breakpoint).circuit,
                                        options.tensorSplit);
        if (stages != nullptr)
            QSA_OBS_COUNTER("runtime.tensor_stages.built", 1);
        return stages;
    }, built);
}

std::shared_ptr<const circuit::ExecutionRecord>
EnsembleEngine::prefixState(const std::string &breakpoint,
                            const circuit::Circuit &sliced,
                            std::uint64_t seed)
{
    bool built = false;
    auto record = findOrBuild(stateCache, std::tie(breakpoint, seed), [&] {
        // The one prefix execution of SampleFinalState mode; stream
        // split(0) per the layout in the file comment. When the
        // prefix tensor-splits, the halves simulate on their small
        // spaces (same instruction and draw order as a monolithic
        // run) and combine only for the tail.
        auto stages = tensorStages(breakpoint);
        Rng rng = Rng(seed).split(0);
        if (stages == nullptr)
            return std::make_shared<const circuit::ExecutionRecord>(
                circuit::runCircuit(sliced, rng));
        auto staged = std::make_shared<circuit::ExecutionRecord>(
            program->numQubits());
        sim::StateVector low_state(stages->split);
        sim::StateVector high_state(program->numQubits() -
                                    stages->split);
        circuit::runCircuitOn(stages->low, low_state,
                              staged->measurements, rng);
        circuit::runCircuitOn(stages->high, high_state,
                              staged->measurements, rng);
        staged->state = low_state.tensorWith(high_state);
        circuit::runCircuitOn(stages->combo, staged->state,
                              staged->measurements, rng);
        return std::shared_ptr<const circuit::ExecutionRecord>(
            std::move(staged));
    }, built);
    if (built)
        QSA_OBS_COUNTER("runtime.state_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.state_cache.hits", 1);
    return record;
}

std::shared_ptr<const ResimPlan>
EnsembleEngine::resimPlan(const std::string &breakpoint)
{
    bool built = false;
    auto plan = findOrBuild(resimCache, breakpoint, [&] {
        const auto sliced = prefix(breakpoint).circuit;
        auto stages = tensorStages(breakpoint);
        if (stages != nullptr) {
            // Staged: per-half deterministic heads on the small
            // spaces; trials copy the half states, run the half tails,
            // and tensor only for the combining tail. The monolithic
            // head is a 1-qubit placeholder so a cached plan never
            // pins a full-size state it will not use.
            auto staged = std::make_shared<ResimStages>(
                stages->split, program->numQubits() - stages->split);
            staged->layout = stages;
            const std::size_t low_head = extendDeterministicHead(
                stages->low, staged->lowHead, staged->lowDraws);
            staged->lowTail =
                stages->low.sliceRange(low_head, stages->low.size());
            const std::size_t high_head = extendDeterministicHead(
                stages->high, staged->highHead, staged->highDraws);
            staged->highTail = stages->high.sliceRange(
                high_head, stages->high.size());
            auto placeholder = std::make_shared<ResimPlan>(1);
            placeholder->stages = std::move(staged);
            return std::shared_ptr<const ResimPlan>(
                std::move(placeholder));
        }
        // Extend the head while instructions are deterministic:
        // unitary gates and markers always; resets only when the
        // current state fixes their implicit measurement outcome;
        // stop at the first Measure or classically-conditioned
        // instruction (there is no record to condition on yet — a
        // valid program measures first).
        auto full = std::make_shared<ResimPlan>(program->numQubits());
        const std::size_t head = extendDeterministicHead(
            *sliced, full->headState, full->headDraws);
        full->tail = sliced->sliceRange(head, sliced->size());
        return std::shared_ptr<const ResimPlan>(std::move(full));
    }, built);
    if (built)
        QSA_OBS_COUNTER("runtime.head_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.head_cache.hits", 1);
    return plan;
}

std::shared_ptr<const CdfSampler>
EnsembleEngine::shotSampler(const EnsembleSpec &spec)
{
    // A seed-free prefix state (and so its marginal) is shared by
    // every seed; it is keyed and simulated under seed 0.
    const Prefix sliced = prefix(spec.breakpoint);
    const std::uint64_t seed = sliced.seedFree ? 0 : spec.seed;
    bool built = false;
    auto sampler = findOrBuild(
        samplerCache, std::tie(spec.breakpoint, seed, spec.qubits), [&] {
            auto record =
                prefixState(spec.breakpoint, *sliced.circuit, seed);
            return std::make_shared<const CdfSampler>(
                record->state.marginalProbs(spec.qubits));
        }, built);
    if (built)
        QSA_OBS_COUNTER("runtime.sampler_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.sampler_cache.hits", 1);
    return sampler;
}

void
EnsembleEngine::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    prefixCache.clear();
    resimCache.clear();
    stateCache.clear();
    samplerCache.clear();
    stagesCache.clear();
}

void
EnsembleEngine::evictSeeded()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    // Every state and sampler entry was built after its prefix, so
    // the prefix entry is there and (no gather being in flight) done.
    const auto keep = [&](const std::string &breakpoint) {
        const auto it = prefixCache.find(breakpoint);
        return it != prefixCache.end() &&
               it->second.future.get().seedFree;
    };
    for (auto it = stateCache.begin(); it != stateCache.end();)
        it = keep(std::get<0>(it->first)) ? std::next(it)
                                          : stateCache.erase(it);
    for (auto it = samplerCache.begin(); it != samplerCache.end();)
        it = keep(std::get<0>(it->first)) ? std::next(it)
                                          : samplerCache.erase(it);
}

void
EnsembleEngine::runTrials(const EnsembleSpec &spec,
                          const ResimPlan *plan,
                          const CdfSampler *sampler, std::size_t lo,
                          std::size_t hi, std::uint64_t *out) const
{
    const Rng master(spec.seed);
    if (spec.mode == SampleMode::Resimulate && plan->stages != nullptr) {
        // Tensor-split trials: each half re-simulates on its own
        // small state; the full-size state exists only from the
        // combining tail on. Draw order — low draws, then high, then
        // combo — is the monolithic program order, so the measurement
        // map and stream position match an unstaged run draw for
        // draw.
        const ResimStages &staged = *plan->stages;
        for (std::size_t m = lo; m < hi; ++m) {
            Rng rng = master.split(m);
            std::map<std::string, std::uint64_t> measurements;
            for (std::size_t d = 0; d < staged.lowDraws; ++d)
                rng.uniform();
            sim::StateVector low_state = staged.lowHead;
            circuit::runCircuitOn(staged.lowTail, low_state,
                                  measurements, rng);
            for (std::size_t d = 0; d < staged.highDraws; ++d)
                rng.uniform();
            sim::StateVector high_state = staged.highHead;
            circuit::runCircuitOn(staged.highTail, high_state,
                                  measurements, rng);
            sim::StateVector state = low_state.tensorWith(high_state);
            circuit::runCircuitOn(staged.layout->combo, state,
                                  measurements, rng);
            out[m - lo] = state.measureQubits(spec.qubits, rng);
        }
    } else if (spec.mode == SampleMode::Resimulate) {
        for (std::size_t m = lo; m < hi; ++m) {
            // Trial streams are keyed by the global trial index, so
            // shard boundaries cannot influence any outcome. The
            // draws the cached head's resets would have consumed are
            // discarded so the tail sees the same stream position an
            // uncached full re-simulation would.
            Rng rng = master.split(m);
            for (std::size_t d = 0; d < plan->headDraws; ++d)
                rng.uniform();
            sim::StateVector state = plan->headState;
            std::map<std::string, std::uint64_t> measurements;
            circuit::runCircuitOn(plan->tail, state, measurements,
                                  rng);
            out[m - lo] = state.measureQubits(spec.qubits, rng);
        }
    } else {
        for (std::size_t m = lo; m < hi; ++m) {
            Rng rng = master.split(m + 1);
            out[m - lo] = sampler->sample(rng.uniform());
        }
    }
}

std::vector<std::uint64_t>
EnsembleEngine::gather(const EnsembleSpec &spec)
{
    if (spec.shots == 0)
        return {};

    QSA_OBS_SPAN(span, "runtime.gather");
    span.arg("breakpoint", spec.breakpoint)
        .arg("shots", spec.shots)
        .arg("mode", spec.mode == SampleMode::Resimulate
                         ? "resimulate"
                         : "sample");
    QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
    QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

    std::shared_ptr<const ResimPlan> plan;
    std::shared_ptr<const CdfSampler> sampler;
    if (spec.mode == SampleMode::Resimulate)
        plan = resimPlan(spec.breakpoint);
    else
        sampler = shotSampler(spec);

    std::vector<std::uint64_t> results(spec.shots);
    // From inside a worker (e.g. a BatchRunner unit) or for a single
    // shot the fan-out would run inline anyway — skip resolving a
    // pool entirely.
    if (ThreadPool::insideWorker() || spec.shots == 1) {
        runTrials(spec, plan.get(), sampler.get(), 0, spec.shots,
                  results.data());
        return results;
    }
    const std::size_t num_shards =
        std::min<std::size_t>(pool().concurrency(), spec.shots);
    pool().parallelFor(num_shards, [&](std::size_t s) {
        const auto [lo, hi] = shardRange(s, num_shards, spec.shots);
        runTrials(spec, plan.get(), sampler.get(), lo, hi,
                  results.data() + lo);
    });
    return results;
}

std::map<std::uint64_t, std::uint64_t>
EnsembleEngine::gatherHistogram(const EnsembleSpec &spec)
{
    if (spec.shots == 0)
        return {};

    QSA_OBS_SPAN(span, "runtime.gather_histogram");
    span.arg("breakpoint", spec.breakpoint)
        .arg("shots", spec.shots)
        .arg("mode", spec.mode == SampleMode::Resimulate
                         ? "resimulate"
                         : "sample");
    QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
    QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

    std::shared_ptr<const ResimPlan> plan;
    std::shared_ptr<const CdfSampler> sampler;
    if (spec.mode == SampleMode::Resimulate)
        plan = resimPlan(spec.breakpoint);
    else
        sampler = shotSampler(spec);

    const std::size_t num_shards =
        ThreadPool::insideWorker()
            ? 1
            : std::min<std::size_t>(pool().concurrency(), spec.shots);
    std::vector<std::map<std::uint64_t, std::uint64_t>> shard_hists(
        num_shards);
    auto run_shard = [&](std::size_t s) {
        const auto [lo, hi] = shardRange(s, num_shards, spec.shots);
        // Fold trials into the shard histogram in fixed-size chunks so
        // peak memory really is O(distinct outcomes), not O(shots).
        constexpr std::size_t chunk = 8192;
        std::vector<std::uint64_t> buffer(std::min(chunk, hi - lo));
        auto &hist = shard_hists[s];
        for (std::size_t m = lo; m < hi; m += chunk) {
            const std::size_t end = std::min(m + chunk, hi);
            runTrials(spec, plan.get(), sampler.get(), m, end,
                      buffer.data());
            for (std::size_t k = 0; k < end - m; ++k)
                ++hist[buffer[k]];
        }
    };
    if (num_shards == 1)
        run_shard(0); // no pool to resolve for an inline gather
    else
        pool().parallelFor(num_shards, run_shard);

    // Merge in shard order: deterministic regardless of which worker
    // finished first (counts commute, but the convention is cheap and
    // makes the reduction order part of the contract).
    std::map<std::uint64_t, std::uint64_t> merged;
    for (const auto &hist : shard_hists)
        for (const auto &[value, count] : hist)
            merged[value] += count;
    return merged;
}

} // namespace qsa::runtime
