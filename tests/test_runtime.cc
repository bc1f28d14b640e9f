/**
 * @file
 * Tests for qsa::runtime: the thread pool, the RNG splitting/jumping
 * machinery it relies on, thread-count invariance of the ensemble
 * engine, and batch-vs-serial equivalence of BatchRunner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "qsa/qsa.hh"

namespace
{

using namespace qsa;

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    runtime::ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    runtime::ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, SerialPoolRunsInOrder)
{
    runtime::ThreadPool pool(1);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    runtime::ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        // A worker body fanning out again must run inline, not wait
        // for pool slots it may be occupying itself.
        pool.parallelFor(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, BodyExceptionPropagatesAndPoolSurvives)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 10)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The job must not wedge the pool: later work still runs.
    std::atomic<int> count{0};
    pool.parallelFor(32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReusableAcrossManyInvocations)
{
    runtime::ThreadPool pool(3);
    std::atomic<long> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(10, [&](std::size_t i) { sum += (long)i; });
    EXPECT_EQ(sum.load(), 50 * 45);
}

// --- Rng splitting and jumping --------------------------------------------

TEST(RngSplit, MatchesDocumentedGammaStreamDerivation)
{
    // split(i) is documented (rng.hh) as seeding the child with the
    // i-th output of the SplitMix64 sequence started at the parent
    // seed. Recompute that by hand through the public splitMix64.
    const std::uint64_t seed = 0x51c0ffee;
    for (std::uint64_t i : {0ull, 1ull, 7ull, 63ull}) {
        std::uint64_t sm = seed + i * 0x9e3779b97f4a7c15ull;
        Rng expected{splitMix64(sm)};
        Rng child = Rng(seed).split(i);
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(child.next(), expected.next());
    }
}

TEST(RngSplit, ChildrenAreDistinctAcrossManyShards)
{
    // The satellite requirement: collision-free stream splitting for
    // >= 64 shards. The derivation is injective in the child index, so
    // the children's first outputs must all differ (xoshiro's first
    // output is a bijective-ish hash of the seed; 4096 distinct seeds
    // colliding here would be a real bug, not bad luck).
    const Rng master(0xdeadbeef);
    std::set<std::uint64_t> firsts;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        Rng child = master.split(i);
        firsts.insert(child.next());
    }
    EXPECT_EQ(firsts.size(), 4096u);
}

TEST(RngSplit, DeterministicPerIndex)
{
    const Rng master(123);
    Rng a = master.split(42);
    Rng b = master.split(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngJump, JumpedStreamsDiffer)
{
    Rng base(7);
    Rng hopped(7);
    hopped.jump();
    std::set<std::uint64_t> base_vals;
    for (int i = 0; i < 512; ++i)
        base_vals.insert(base.next());
    // Disjoint subsequences: none of the jumped stream's outputs
    // should appear in the base stream's window.
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(base_vals.count(hopped.next()), 0u);
}

TEST(RngJump, JumpedCountComposes)
{
    Rng twice(99);
    twice.jump();
    twice.jump();
    Rng composed = Rng(99).jumped(2);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(twice.next(), composed.next());

    Rng far(99);
    far.longJump();
    Rng near(99);
    near.jump();
    EXPECT_NE(far.next(), near.next());
}

TEST(RngJump, JumpRekeysSplitDerivation)
{
    // Handing shard k a jumped copy and then splitting per trial must
    // give different children than the parent's (split() is keyed on
    // the seed, which jump()/longJump() re-key).
    const Rng master(0x77);
    Rng hop = master.jumped(1);
    Rng hop2 = master.jumped(2);
    Rng lj(0x77);
    lj.longJump();
    std::set<std::uint64_t> firsts;
    for (const Rng &parent : {master, hop, hop2, lj})
        for (std::uint64_t i = 0; i < 4; ++i)
            firsts.insert(parent.split(i).next());
    EXPECT_EQ(firsts.size(), 16u);
}

// --- CdfSampler ------------------------------------------------------------

TEST(CdfSampler, NeverPicksZeroProbabilityBins)
{
    runtime::CdfSampler sampler({0.0, 0.25, 0.0, 0.75, 0.0});
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t bin = sampler.sample(rng.uniform());
        EXPECT_TRUE(bin == 1 || bin == 3) << "bin " << bin;
    }
    // Boundary draws must also land on positive-probability bins.
    EXPECT_EQ(sampler.sample(0.0), 1u);
    EXPECT_EQ(sampler.sample(0.25), 3u);
}

TEST(CdfSampler, MatchesExpectedFrequencies)
{
    runtime::CdfSampler sampler({1.0, 3.0});
    Rng rng(5);
    std::size_t ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += sampler.sample(rng.uniform());
    EXPECT_NEAR((double)ones / n, 0.75, 0.02);
}

// --- EnsembleEngine --------------------------------------------------------

/** Bell-pair program with a breakpoint, the paper's Figure 1 shape. */
circuit::Circuit
bellProgram()
{
    circuit::Circuit circ;
    auto a = circ.addRegister("a", 1);
    auto b = circ.addRegister("b", 1);
    circ.h(a[0]);
    circ.cnot(a[0], b[0]);
    circ.breakpoint("pair");
    circ.measure(a, "ma");
    circ.measure(b, "mb");
    return circ;
}

/** Three-qubit GHZ chain with a breakpoint after the entangler. */
circuit::Circuit
ghzProgram()
{
    circuit::Circuit circ;
    auto r = circ.addRegister("r", 3);
    circ.h(r[0]);
    circ.cnot(r[0], r[1]);
    circ.cnot(r[1], r[2]);
    circ.breakpoint("ghz");
    return circ;
}

runtime::EnsembleSpec
bellSpec(runtime::SampleMode mode)
{
    runtime::EnsembleSpec spec;
    spec.breakpoint = "pair";
    spec.qubits = {0, 1};
    spec.shots = 512;
    spec.mode = mode;
    spec.seed = 0xabcdef;
    return spec;
}

TEST(EnsembleEngine, ThreadCountInvariance)
{
    const auto program = bellProgram();
    for (auto mode : {runtime::SampleMode::Resimulate,
                      runtime::SampleMode::SampleFinalState}) {
        const auto spec = bellSpec(mode);
        runtime::EnsembleEngine serial(program, 1);
        runtime::EnsembleEngine four(program, 4);
        runtime::EnsembleEngine eight(program, 8);

        const auto r1 = serial.gather(spec);
        const auto r4 = four.gather(spec);
        const auto r8 = eight.gather(spec);
        EXPECT_EQ(r1, r4);
        EXPECT_EQ(r1, r8);

        EXPECT_EQ(serial.gatherHistogram(spec),
                  eight.gatherHistogram(spec));
    }
}

TEST(EnsembleEngine, HistogramMatchesGather)
{
    const auto program = ghzProgram();
    runtime::EnsembleSpec spec;
    spec.breakpoint = "ghz";
    spec.qubits = {0, 1, 2};
    spec.shots = 300;
    spec.mode = runtime::SampleMode::Resimulate;
    spec.seed = 42;

    runtime::EnsembleEngine engine(program, 4);
    const auto values = engine.gather(spec);
    std::map<std::uint64_t, std::uint64_t> counted;
    for (auto v : values)
        ++counted[v];
    EXPECT_EQ(counted, engine.gatherHistogram(spec));

    // GHZ on |0..0>: only all-zeros and all-ones outcomes exist.
    for (const auto &[value, count] : counted)
        EXPECT_TRUE(value == 0 || value == 7) << "outcome " << value;
}

TEST(EnsembleEngine, CacheIsTransparent)
{
    const auto program = bellProgram();
    runtime::EnsembleEngine engine(program, 2);
    const auto spec = bellSpec(runtime::SampleMode::SampleFinalState);
    const auto first = engine.gather(spec);   // cold: simulates prefix
    const auto second = engine.gather(spec);  // warm: cached state
    EXPECT_EQ(first, second);
    engine.clearCache();
    EXPECT_EQ(first, engine.gather(spec));
}

TEST(EnsembleEngine, ZeroShotsYieldsEmpty)
{
    const auto program = bellProgram();
    runtime::EnsembleEngine engine(program, 2);
    auto spec = bellSpec(runtime::SampleMode::Resimulate);
    spec.shots = 0;
    EXPECT_TRUE(engine.gather(spec).empty());
    EXPECT_TRUE(engine.gatherHistogram(spec).empty());
}

// --- Seed-free prefix-state key -------------------------------------------

#if QSA_OBS_ENABLED

/** A counter's value in the current registry snapshot (0 if unseen). */
std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}

/**
 * The documented SampleFinalState layout, computed without the
 * engine: the prefix executes under Rng(seed).split(0) and shot m
 * draws its uniform from Rng(seed).split(m + 1) — the shots every
 * seed gave when the prefix state was cached per (breakpoint, seed).
 */
std::vector<std::uint64_t>
perSeedShots(const circuit::Circuit &program,
             const runtime::EnsembleSpec &spec)
{
    Rng rng = Rng(spec.seed).split(0);
    const auto record =
        circuit::runCircuit(program.prefixUpTo(spec.breakpoint), rng);
    const runtime::CdfSampler sampler(
        record.state.marginalProbs(spec.qubits));
    std::vector<std::uint64_t> shots;
    for (std::size_t m = 0; m < spec.shots; ++m)
        shots.push_back(
            sampler.sample(Rng(spec.seed).split(m + 1).uniform()));
    return shots;
}

runtime::EnsembleSpec
sampleSpec(const std::string &breakpoint, std::vector<unsigned> qubits,
           std::uint64_t seed)
{
    runtime::EnsembleSpec spec;
    spec.breakpoint = breakpoint;
    spec.qubits = std::move(qubits);
    spec.shots = 400;
    spec.mode = runtime::SampleMode::SampleFinalState;
    spec.seed = seed;
    return spec;
}

TEST(EnsembleEngine, SeedFreePrefixSimulatesOnceAcrossSeeds)
{
    // Measurement-free, with a reset on a qubit nothing touched yet
    // (its outcome is certain), so the prefix state is seed-free.
    circuit::Circuit program(3);
    program.prepZ(2, 0);
    program.h(0);
    program.ry(1, 0.7);
    program.cnot(0, 2);
    program.t(2);
    program.cz(1, 2);
    program.h(2);
    program.breakpoint("end");

    obs::Registry::reset();
    runtime::EnsembleEngine engine(program, 2, {/*fuseGates=*/false});
    for (std::uint64_t seed : {11u, 22u, 33u}) {
        const auto spec = sampleSpec("end", {0, 1, 2}, seed);
        EXPECT_EQ(engine.gather(spec), perSeedShots(program, spec))
            << "seed " << seed;
    }
    EXPECT_EQ(counterValue("runtime.state_cache.misses"), 1);
    EXPECT_EQ(counterValue("runtime.sampler_cache.misses"), 1);
}

TEST(EnsembleEngine, MeasuredPrefixSimulatesOncePerSeed)
{
    // A mid-circuit measurement makes the prefix state depend on the
    // seed's outcome draw: one simulation per seed, none shared.
    circuit::Circuit program(2);
    program.h(0);
    program.measureQubits({0}, "m0");
    program.h(1);
    program.cnot(1, 0);
    program.breakpoint("end");

    obs::Registry::reset();
    runtime::EnsembleEngine engine(program, 2, {/*fuseGates=*/false});
    for (std::uint64_t seed : {11u, 22u, 33u}) {
        const auto spec = sampleSpec("end", {0, 1}, seed);
        EXPECT_EQ(engine.gather(spec), perSeedShots(program, spec))
            << "seed " << seed;
    }
    EXPECT_EQ(counterValue("runtime.state_cache.misses"), 3);
}

// --- Single-flight caches --------------------------------------------------

/**
 * Teleport with its mid-circuit measurements and conditioned X/Z
 * corrections, plus six assertions of which two share each of two
 * breakpoints — the shape where plan units race on one cache key.
 */
struct MeasuredTeleport
{
    circuit::Circuit program;
    std::vector<assertions::AssertionSpec> plan;

    MeasuredTeleport()
    {
        const auto msg = program.addRegister("msg", 1);
        const auto alice = program.addRegister("alice", 1);
        const auto bob = program.addRegister("bob", 1);
        program.ry(msg[0], 0.7);
        program.h(alice[0]);
        program.cnot(alice[0], bob[0]);
        program.breakpoint("pair_ready");
        program.cnot(msg[0], alice[0]);
        program.h(msg[0]);
        program.breakpoint("rotated");
        program.measureQubits({msg[0]}, "m_msg");
        program.measureQubits({alice[0]}, "m_alice");
        program.x(bob[0]);
        program.conditionLast("m_alice", 1);
        program.z(bob[0]);
        program.conditionLast("m_msg", 1);
        program.breakpoint("corrected");
        program.ry(bob[0], -0.7);
        program.breakpoint("verified");

        const auto add = [&](assertions::AssertionKind kind,
                             const std::string &bp,
                             const circuit::QubitRegister &a,
                             const circuit::QubitRegister &b) {
            assertions::AssertionSpec spec;
            spec.kind = kind;
            spec.breakpoint = bp;
            spec.regA = a;
            spec.regB = b;
            plan.push_back(spec);
        };
        using assertions::AssertionKind;
        add(AssertionKind::Entangled, "pair_ready", alice, bob);
        add(AssertionKind::Product, "pair_ready", msg, bob);
        add(AssertionKind::Superposition, "rotated", alice, {});
        add(AssertionKind::Product, "corrected", msg, alice);
        add(AssertionKind::Classical, "verified", bob, {});
        add(AssertionKind::Product, "verified", msg, bob);
    }
};

/** The work and cache counters one fresh checkAll() adds. */
std::vector<std::int64_t>
checkAllTotals(const MeasuredTeleport &fx,
               assertions::EnsembleMode mode, unsigned threads)
{
    static const char *const kNames[] = {
        "sim.amp_touches",           "sim.gate_applies",
        "runtime.prefix_cache.hits", "runtime.prefix_cache.misses",
        "runtime.head_cache.hits",   "runtime.head_cache.misses",
        "runtime.state_cache.hits",  "runtime.state_cache.misses",
        "runtime.sampler_cache.hits", "runtime.sampler_cache.misses",
    };
    assertions::CheckConfig cfg;
    cfg.mode = mode;
    cfg.numThreads = threads;
    obs::Registry::reset();
    assertions::AssertionChecker checker(fx.program, cfg);
    for (const auto &spec : fx.plan)
        checker.addAssertion(spec);
    checker.checkAll();
    std::vector<std::int64_t> totals;
    for (const char *name : kNames)
        totals.push_back(counterValue(name));
    return totals;
}

TEST(EnsembleEngine, RacingUnitsBuildEachCacheEntryOnce)
{
    // Units racing on one breakpoint wait for the one build instead
    // of repeating it, so the work and cache totals of a run are the
    // same at 1 and 4 threads (obs.hh's determinism promise).
    const MeasuredTeleport fx;
    for (const auto mode : {assertions::EnsembleMode::Resimulate,
                            assertions::EnsembleMode::SampleFinalState}) {
        const auto serial = checkAllTotals(fx, mode, 1);
        EXPECT_GT(serial[0], 0);
        for (int rep = 0; rep < 40; ++rep)
            ASSERT_EQ(checkAllTotals(fx, mode, 4), serial)
                << "mode " << static_cast<int>(mode) << ", run " << rep;
    }
}

#endif // QSA_OBS_ENABLED

// --- Checker-level invariance ---------------------------------------------

TEST(CheckerRuntime, OutcomesInvariantUnderThreadCount)
{
    const auto program = bellProgram();
    for (auto mode : {assertions::EnsembleMode::Resimulate,
                      assertions::EnsembleMode::SampleFinalState}) {
        std::vector<assertions::AssertionOutcome> per_thread_count;
        for (unsigned threads : {1u, 4u, 8u}) {
            assertions::CheckConfig cfg;
            cfg.ensembleSize = 256;
            cfg.mode = mode;
            cfg.seed = 0x51c0ffee;
            cfg.numThreads = threads;
            assertions::AssertionChecker checker(program, cfg);
            checker.assertEntangled("pair", program.reg("a"),
                                    program.reg("b"));
            per_thread_count.push_back(
                checker.check(checker.assertions()[0]));
        }
        const auto &ref = per_thread_count.front();
        EXPECT_TRUE(ref.passed);
        for (const auto &outcome : per_thread_count) {
            EXPECT_EQ(outcome.pValue, ref.pValue);
            EXPECT_EQ(outcome.statistic, ref.statistic);
            EXPECT_EQ(outcome.countsA, ref.countsA);
            EXPECT_EQ(outcome.jointCounts, ref.jointCounts);
        }
    }
}

TEST(CheckerRuntime, ClearRuntimeCacheIsTransparent)
{
    const auto program = bellProgram();
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 128;
    assertions::AssertionChecker checker(program, cfg);
    checker.assertSuperposition("pair", program.reg("a"));
    const auto before = checker.check(checker.assertions()[0]);
    checker.clearRuntimeCache();
    const auto after = checker.check(checker.assertions()[0]);
    EXPECT_EQ(before.pValue, after.pValue);
    EXPECT_EQ(before.countsA, after.countsA);
}

// --- BatchRunner -----------------------------------------------------------

TEST(BatchRunner, MatchesSerialCheckAll)
{
    const auto bell = bellProgram();

    // A broken variant: the missing CNOT leaves the pair unentangled.
    circuit::Circuit broken;
    auto a = broken.addRegister("a", 1);
    auto b = broken.addRegister("b", 1);
    broken.h(a[0]);
    broken.breakpoint("pair");
    (void)b;

    assertions::CheckConfig cfg;
    cfg.ensembleSize = 256;
    cfg.seed = 0xfeed;

    std::vector<assertions::AssertionSpec> specs;
    {
        assertions::AssertionChecker proto(bell, cfg);
        proto.assertEntangled("pair", bell.reg("a"), bell.reg("b"));
        proto.assertSuperposition("pair", bell.reg("a"));
        specs = proto.assertions();
    }

    runtime::BatchRunner runner(4);
    const auto batch = runner.checkAll({&bell, &broken}, specs, cfg);
    ASSERT_EQ(batch.size(), 2u);

    std::size_t program_index = 0;
    for (const circuit::Circuit *program :
         {&bell, static_cast<const circuit::Circuit *>(&broken)}) {
        assertions::AssertionChecker serial(*program, cfg);
        for (const auto &spec : specs)
            serial.addAssertion(spec);
        const auto expected = serial.checkAll();
        const auto &got = batch[program_index];
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t j = 0; j < expected.size(); ++j) {
            EXPECT_EQ(got[j].pValue, expected[j].pValue);
            EXPECT_EQ(got[j].statistic, expected[j].statistic);
            EXPECT_EQ(got[j].passed, expected[j].passed);
            EXPECT_EQ(got[j].countsA, expected[j].countsA);
            EXPECT_EQ(got[j].jointCounts, expected[j].jointCounts);
        }
        ++program_index;
    }

    // Sanity on the verdicts themselves: the Bell pair is entangled,
    // the broken variant is not.
    EXPECT_TRUE(batch[0][0].passed);
    EXPECT_FALSE(batch[1][0].passed);
}

TEST(BatchRunner, BatchedCheckAllMatchesSerialPerSpecLoop)
{
    // AssertionChecker::checkAll now fans its specs through
    // BatchRunner; the satellite contract is that the batched plan is
    // bit-identical to checking each spec serially, at any thread
    // count and in both ensemble modes.
    const auto program = bellProgram();
    for (auto mode : {assertions::EnsembleMode::Resimulate,
                      assertions::EnsembleMode::SampleFinalState}) {
        for (unsigned threads : {1u, 4u, 0u}) {
            assertions::CheckConfig cfg;
            cfg.ensembleSize = 192;
            cfg.mode = mode;
            cfg.numThreads = threads;
            assertions::AssertionChecker checker(program, cfg);
            checker.assertClassical("pair", program.reg("a"), 0, 0.2);
            checker.assertSuperposition("pair", program.reg("a"));
            checker.assertEntangled("pair", program.reg("a"),
                                    program.reg("b"));
            checker.assertProduct("pair", program.reg("a"),
                                  program.reg("b"));

            const auto batched = checker.checkAll();
            ASSERT_EQ(batched.size(), 4u);
            for (std::size_t i = 0; i < batched.size(); ++i) {
                const auto serial =
                    checker.check(checker.assertions()[i]);
                EXPECT_EQ(batched[i].pValue, serial.pValue);
                EXPECT_EQ(batched[i].statistic, serial.statistic);
                EXPECT_EQ(batched[i].df, serial.df);
                EXPECT_EQ(batched[i].passed, serial.passed);
                EXPECT_EQ(batched[i].countsA, serial.countsA);
                EXPECT_EQ(batched[i].jointCounts, serial.jointCounts);
            }
        }
    }
}

TEST(BatchRunner, SharedCheckerOverloadMatchesDirectChecks)
{
    // The BatchRunner::checkAll(checker, specs) overload — the plan
    // executor behind checkAll and Session::run — shares one engine
    // across units and stays bit-identical, with or without an
    // escalation policy.
    const auto program = bellProgram();
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 64;
    assertions::AssertionChecker checker(program, cfg);
    checker.assertSuperposition("pair", program.reg("a"));
    checker.assertEntangled("pair", program.reg("a"),
                            program.reg("b"));
    const auto &specs = checker.assertions();

    runtime::BatchRunner runner(4);
    const auto plain = runner.checkAll(checker, specs);
    ASSERT_EQ(plain.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto want = checker.check(specs[i]);
        EXPECT_EQ(plain[i].pValue, want.pValue);
        EXPECT_EQ(plain[i].countsA, want.countsA);
    }

    const assertions::EscalationPolicy policy{16, 256, 0.30};
    const auto escalated = runner.checkAll(checker, specs, &policy);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto want = checker.checkEscalated(specs[i], policy);
        EXPECT_EQ(escalated[i].pValue, want.pValue);
        EXPECT_EQ(escalated[i].ensembleSize, want.ensembleSize);
        EXPECT_EQ(escalated[i].passed, want.passed);
    }
}

TEST(BatchRunner, PerItemConfigsAreHonoured)
{
    const auto bell = bellProgram();

    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Superposition;
    spec.breakpoint = "pair";
    spec.regA = bell.reg("a");

    runtime::BatchItem fast;
    fast.program = &bell;
    fast.specs = {spec};
    fast.config.ensembleSize = 64;

    runtime::BatchItem big = fast;
    big.config.ensembleSize = 512;

    runtime::BatchRunner runner(2);
    const auto results = runner.checkAll({fast, big});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0][0].ensembleSize, 64u);
    EXPECT_EQ(results[1][0].ensembleSize, 512u);
}

} // anonymous namespace
