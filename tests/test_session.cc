/**
 * @file
 * Tests for the qsa::session facade: bit-identical equivalence with
 * the direct AssertionChecker path (across thread counts and ensemble
 * modes — the facade's core contract), boundary addressing with
 * on-demand instrumentation, fluent handles, composable escalation /
 * Holm-Bonferroni policies, the locate() handoff, and
 * registration-time validation.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using assertions::AssertionOutcome;
using assertions::CheckConfig;
using assertions::EnsembleMode;
using circuit::Circuit;
using circuit::QubitRegister;

/** Field-for-field equality of two outcomes (bit-identical). */
void
expectIdentical(const AssertionOutcome &got,
                const AssertionOutcome &want, const std::string &where)
{
    EXPECT_EQ(got.pValue, want.pValue) << where;
    EXPECT_EQ(got.statistic, want.statistic) << where;
    EXPECT_EQ(got.df, want.df) << where;
    EXPECT_EQ(got.passed, want.passed) << where;
    EXPECT_EQ(got.ensembleSize, want.ensembleSize) << where;
    EXPECT_EQ(got.effectiveAlpha, want.effectiveAlpha) << where;
    EXPECT_EQ(got.countsA, want.countsA) << where;
    EXPECT_EQ(got.jointCounts, want.jointCounts) << where;
    EXPECT_EQ(got.cramersV, want.cramersV) << where;
    EXPECT_EQ(got.impossibleOutcome, want.impossibleOutcome) << where;
    EXPECT_EQ(got.spec.name, want.spec.name) << where;
}

/** Bell program plus the sliced halves. */
struct BellFixture
{
    Circuit circ = algo::buildBellProgram();
    QubitRegister q = circ.reg("q");
    QubitRegister q0 = circ.reg("q").slice(0, 1, "q0");
    QubitRegister q1 = circ.reg("q").slice(1, 1, "q1");
};

/**
 * The acceptance contract: every quickstart assertion registered
 * through Session yields the identical AssertionOutcome as the direct
 * AssertionChecker path, for both ensemble modes and thread counts
 * 1 / 4 / 0 (shared pool).
 */
TEST(SessionEquivalence, QuickstartPlanMatchesCheckerBitIdentically)
{
    BellFixture f;
    for (auto mode : {EnsembleMode::Resimulate,
                      EnsembleMode::SampleFinalState}) {
        for (unsigned threads : {1u, 4u, 0u}) {
            CheckConfig cfg;
            cfg.ensembleSize = 256;
            cfg.mode = mode;
            cfg.numThreads = threads;

            session::Session s(f.circ, cfg);
            s.at("classical").expectClassical(f.q, 0);
            s.at("superposition").expectSuperposition(f.q0);
            s.at("superposition").expectProduct(f.q0, f.q1);
            s.at("entangled").expectEntangled(f.q0, f.q1);
            const auto &got = s.run();

            assertions::AssertionChecker checker(f.circ, cfg);
            checker.assertClassical("classical", f.q, 0);
            checker.assertSuperposition("superposition", f.q0);
            checker.assertProduct("superposition", f.q0, f.q1);
            checker.assertEntangled("entangled", f.q0, f.q1);
            const auto want = checker.checkAll();

            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                expectIdentical(
                    got[i], want[i],
                    "spec " + std::to_string(i) + " mode " +
                        std::to_string((int)mode) + " threads " +
                        std::to_string(threads));
            }
            EXPECT_TRUE(s.allPassed());
        }
    }
}

TEST(SessionEquivalence, BoundarySitesMatchManualInstrumentation)
{
    // A raw circuit with no breakpoints at all: the facade
    // instruments on demand; the manual path instruments by hand with
    // the same labels. Outcomes must be bit-identical.
    Circuit raw;
    const auto q = raw.addRegister("q", 2);
    raw.prepZ(q[0], 0);
    raw.prepZ(q[1], 0);
    raw.h(q[0]);
    raw.cnot(q[0], q[1]);
    const auto q0 = q.slice(0, 1, "q0");
    const auto q1 = q.slice(1, 1, "q1");

    CheckConfig cfg;
    cfg.ensembleSize = 128;

    session::Session s(raw, cfg);
    s.after(2).expectClassical(q, 0);
    s.after(3).expectSuperposition(q0);
    s.after(4).expectEntangled(q0, q1);
    const auto &got = s.run();

    const Circuit instrumented =
        raw.withBoundaryBreakpoints("qsa_session_b");
    assertions::AssertionChecker checker(instrumented, cfg);
    checker.assertClassical(session::Session::boundaryLabel(2), q, 0);
    checker.assertSuperposition(session::Session::boundaryLabel(3),
                                q0);
    checker.assertEntangled(session::Session::boundaryLabel(4), q0,
                            q1);
    const auto want = checker.checkAll();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(got[i], want[i], "spec " + std::to_string(i));

    // Labelled and boundary addressing may be mixed once
    // instrumented: the original labels survive instrumentation.
    session::Session mixed(algo::buildBellProgram(), cfg);
    mixed.after(2).expectClassical(q, 0);
    mixed.at("entangled").expectEntangled(q0, q1);
    EXPECT_TRUE(mixed.allPassed());
}

TEST(SessionEquivalence, EscalationPolicyMatchesCheckEscalated)
{
    // An Entangled assertion at M = 8 under a strict alpha is
    // underpowered (it cannot reject independence yet), so the policy
    // escalates — the facade must land on exactly the checkEscalated
    // verdict.
    BellFixture f;
    const assertions::EscalationPolicy policy{8, 512, 0.30};

    CheckConfig cfg;
    session::Session s(f.circ, cfg);
    s.use(policy);
    s.at("entangled").expectEntangled(f.q0, f.q1).alpha(0.001);
    s.at("superposition").expectSuperposition(f.q0);
    const auto &got = s.run();

    assertions::AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1, 0.001);
    checker.assertSuperposition("superposition", f.q0);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        expectIdentical(
            got[i],
            checker.checkEscalated(checker.assertions()[i], policy),
            "escalated spec " + std::to_string(i));
    }
    EXPECT_GT(got[0].ensembleSize, policy.initialSize);
}

TEST(SessionEquivalence, HolmBonferroniPolicyMatchesCheckerFlag)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 256;

    session::Session s(f.circ, cfg);
    s.use(session::HolmBonferroni{});
    s.at("classical").expectClassical(f.q, 0);
    s.at("superposition").expectSuperposition(f.q0);
    s.at("superposition").expectProduct(f.q0, f.q1);
    s.at("entangled").expectEntangled(f.q0, f.q1);
    const auto &got = s.run();

    CheckConfig flag_cfg = cfg;
    flag_cfg.holmBonferroni = true;
    assertions::AssertionChecker checker(f.circ, flag_cfg);
    checker.assertClassical("classical", f.q, 0);
    checker.assertSuperposition("superposition", f.q0);
    checker.assertProduct("superposition", f.q0, f.q1);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto want = checker.checkAll();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(got[i], want[i], "hb spec " + std::to_string(i));

    // The policy is composable: switching it off restores
    // per-assertion adjudication.
    s.use(session::HolmBonferroni{false});
    for (const auto &out : s.run())
        EXPECT_EQ(out.effectiveAlpha, out.spec.alpha);
}

// --- Fluent surface ---------------------------------------------------------

TEST(SessionFluent, HandlesRefineSpecsAndReadOutcomes)
{
    BellFixture f;
    session::Session s(f.circ);
    auto &e = s.at("entangled")
                  .expectEntangled(f.q0, f.q1)
                  .alpha(0.01)
                  .named("bell-pair entangled");
    EXPECT_EQ(e.spec().alpha, 0.01);
    EXPECT_EQ(e.spec().name, "bell-pair entangled");

    // Reading the handle runs the plan on demand.
    EXPECT_TRUE(e.passed());
    EXPECT_LE(e.pValue(), 0.01);
    EXPECT_EQ(e.outcome().effectiveAlpha, 0.01);

    const std::string report = s.report();
    EXPECT_NE(report.find("bell-pair entangled"), std::string::npos);

    // Renaming after the run patches the report without invalidating
    // (and thus recomputing) the plan's ensembles.
    const double p = e.pValue();
    e.named("renamed");
    EXPECT_NE(s.report().find("renamed"), std::string::npos);
    EXPECT_EQ(e.pValue(), p);
}

TEST(SessionFluent, LateRegistrationsMakeResultsStale)
{
    BellFixture f;
    session::Session s(f.circ);
    s.at("classical").expectClassical(f.q, 0);
    EXPECT_EQ(s.outcomes().size(), 1u);

    // A second registration after the first run: reading any result
    // re-runs the grown plan.
    auto &e = s.at("entangled").expectEntangled(f.q0, f.q1);
    EXPECT_TRUE(e.passed());
    EXPECT_EQ(s.outcomes().size(), 2u);

    // Default display names match the checker's convention.
    EXPECT_EQ(s.outcomes()[1].spec.name, "entangled@entangled");
}

TEST(SessionFluent, ConfigSettersRebuildTheEngine)
{
    BellFixture f;
    session::Session s(f.circ);
    s.at("superposition").expectSuperposition(f.q0);
    const auto first = s.outcomes()[0];

    s.ensembleSize(512).seed(0xfeedbeef);
    const auto second = s.outcomes()[0];
    EXPECT_EQ(second.ensembleSize, 512u);
    EXPECT_NE(first.countsA, second.countsA);

    // Returning to the original configuration reproduces the first
    // outcome exactly (the determinism contract through the facade).
    s.ensembleSize(256).seed(CheckConfig().seed);
    expectIdentical(s.outcomes()[0], first, "restored config");
}

// --- Re-running one session under a new configuration ----------------------

/** A plan, registered the same way on every session it is given. */
struct PlannedCase
{
    std::string name;
    Circuit program;
    std::function<void(session::Session &)> plan;
};

/** Grover over 4 qubits: label sites plus one boundary site. */
PlannedCase
groverCase()
{
    const auto g = algo::buildMarkedValueGrover(4, 0b1011);
    return {"grover", g.circuit, [q = g.q](session::Session &s) {
                s.at("superposed").expectSuperposition(q);
                s.at("iter_1").expectSuperposition(q);
                s.after(5).expectSuperposition(q);
                s.at("iter_3").expectClassical(q, 0b1011);
            }};
}

/**
 * Teleport measured mid-circuit and corrected by conditioned X/Z, with
 * assertions before and after the measurements.
 */
PlannedCase
measuredTeleportCase()
{
    Circuit c;
    const auto msg = c.addRegister("msg", 1);
    const auto alice = c.addRegister("alice", 1);
    const auto bob = c.addRegister("bob", 1);
    c.ry(msg[0], 0.7);
    c.h(alice[0]);
    c.cnot(alice[0], bob[0]);
    c.breakpoint("pair_ready");
    c.cnot(msg[0], alice[0]);
    c.h(msg[0]);
    c.measureQubits({msg[0]}, "m_msg");
    c.measureQubits({alice[0]}, "m_alice");
    c.x(bob[0]);
    c.conditionLast("m_alice", 1);
    c.z(bob[0]);
    c.conditionLast("m_msg", 1);
    c.breakpoint("corrected");
    c.ry(bob[0], -0.7);
    c.breakpoint("verified");
    return {"teleport", c, [=](session::Session &s) {
                s.at("pair_ready").expectEntangled(alice, bob);
                s.at("corrected").expectProduct(msg, alice);
                s.at("verified").expectClassical(bob, 0);
                s.at("verified").expectProduct(msg, bob);
            }};
}

/** The session's current run equals a fresh session's, field for field. */
void
expectMatchesFresh(session::Session &s, const PlannedCase &pc,
                   const std::string &where)
{
    session::Session fresh(pc.program, s.config());
    pc.plan(fresh);
    const auto &got = s.run();
    const auto &want = fresh.run();
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectIdentical(got[i], want[i],
                        where + ", assertion " + std::to_string(i));
}

TEST(SessionRerun, ReconfiguredRunMatchesAFreshSession)
{
    // Seed, mode, ensemble size and test statistic change in place on
    // the live engine; every run must still be bit-identical to a
    // session built fresh with the same configuration.
    const PlannedCase teleport = measuredTeleportCase();
    const PlannedCase grover = groverCase();
    struct Start
    {
        const PlannedCase *pc;
        EnsembleMode mode;
    };
    for (const Start start :
         {Start{&grover, EnsembleMode::SampleFinalState},
          Start{&teleport, EnsembleMode::SampleFinalState},
          Start{&teleport, EnsembleMode::Resimulate}}) {
        for (unsigned threads : {1u, 4u}) {
            const PlannedCase &pc = *start.pc;
            const std::string where =
                pc.name + (start.mode == EnsembleMode::Resimulate
                               ? " resimulate"
                               : " sample") +
                " threads " + std::to_string(threads);
            session::Session s(pc.program);
            s.threads(threads).mode(start.mode);
            pc.plan(s);
            expectMatchesFresh(s, pc, where + ", first run");

            s.seed(11);
            expectMatchesFresh(s, pc, where + ", seed 11");
            s.seed(22);
            expectMatchesFresh(s, pc, where + ", seed 22");
            s.ensembleSize(128);
            expectMatchesFresh(s, pc, where + ", size 128");
            s.gTest();
            expectMatchesFresh(s, pc, where + ", g-test");
            s.mode(start.mode == EnsembleMode::Resimulate
                       ? EnsembleMode::SampleFinalState
                       : EnsembleMode::Resimulate);
            expectMatchesFresh(s, pc, where + ", other mode");
            s.mode(start.mode).seed(CheckConfig().seed).ensembleSize(256)
                .gTest(false);
            expectMatchesFresh(s, pc, where + ", restored");
        }
    }
}

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

TEST(SessionRerun, NewSeedReusesSeedFreeStates)
{
    // A measurement-free plan ends in the same state under every
    // seed: re-running it under a new seed only resamples.
    const PlannedCase pc = groverCase();
    session::Session s(pc.program);
    s.threads(4);
    pc.plan(s);
    s.run();

    const std::int64_t misses = counterValue("runtime.state_cache.misses");
    const std::int64_t samplers =
        counterValue("runtime.sampler_cache.misses");
    const std::int64_t gates = counterValue("sim.gate_applies");
    s.seed(11);
    s.run();
    EXPECT_EQ(counterValue("runtime.state_cache.misses"), misses);
    EXPECT_EQ(counterValue("runtime.sampler_cache.misses"), samplers);
    EXPECT_EQ(counterValue("sim.gate_applies"), gates);
}

TEST(SessionRerun, MeasuredStatesAreEvictedOnReseed)
{
    // Past a measurement the SampleFinalState prefix state belongs to
    // one seed. A new seed drops it, so going back to the first seed
    // simulates the two measured breakpoints again.
    const PlannedCase pc = measuredTeleportCase();
    session::Session s(pc.program);
    s.threads(4);
    pc.plan(s);
    s.seed(11);
    s.run();
    std::int64_t misses = counterValue("runtime.state_cache.misses");
    for (std::uint64_t seed : {22u, 11u}) {
        s.seed(seed);
        s.run();
        const std::int64_t now =
            counterValue("runtime.state_cache.misses");
        EXPECT_EQ(now - misses, 2) << "seed " << seed;
        misses = now;
    }
}

#endif // QSA_OBS_ENABLED

TEST(SessionFluent, PerExpectationEnsembleSizeMatchesHandBuiltConfig)
{
    // The facade follow-up: one expectation runs at its own ensemble
    // size while the rest keep the session default, bit-identical to
    // a hand-built CheckConfig at that size.
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 128;

    session::Session s(f.circ, cfg);
    s.at("classical").expectClassical(f.q, 0);
    auto &big = s.at("entangled")
                    .expectEntangled(f.q0, f.q1)
                    .ensembleSize(512);
    const auto &got = s.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].ensembleSize, 128u);
    EXPECT_EQ(big.outcome().ensembleSize, 512u);

    CheckConfig big_cfg = cfg;
    big_cfg.ensembleSize = 512;
    assertions::AssertionChecker direct(f.circ, big_cfg);
    direct.assertEntangled("entangled", f.q0, f.q1);
    expectIdentical(got[1], direct.check(direct.assertions()[0]),
                    "overridden expectation");

    // The default-sized sibling is untouched by the override.
    assertions::AssertionChecker small(f.circ, cfg);
    small.assertClassical("classical", f.q, 0);
    expectIdentical(got[0], small.check(small.assertions()[0]),
                    "default-size expectation");

    // Clearing the override restores the session default.
    big.ensembleSize(0);
    EXPECT_EQ(big.outcome().ensembleSize, 128u);
}

TEST(SessionFluent, EnsembleSizeOverrideComposesWithEscalation)
{
    // With a policy in use, the override replaces the policy's
    // initial size for that one assertion — exactly checkEscalated
    // under the adjusted policy.
    BellFixture f;
    const assertions::EscalationPolicy policy{8, 512, 0.30};

    session::Session s(f.circ);
    s.use(policy);
    s.at("entangled")
        .expectEntangled(f.q0, f.q1)
        .alpha(0.001)
        .ensembleSize(256);
    const auto &got = s.run();

    assertions::AssertionChecker checker(f.circ, CheckConfig());
    checker.assertEntangled("entangled", f.q0, f.q1, 0.001);
    const assertions::EscalationPolicy adjusted{256, 512, 0.30};
    expectIdentical(
        got[0],
        checker.checkEscalated(checker.assertions()[0], adjusted),
        "override + escalation");
}

// --- Structured export ------------------------------------------------------

TEST(SessionExport, JsonCarriesTheOutcomeTable)
{
    BellFixture f;
    session::Session s(f.circ);
    s.ensembleSize(64);
    s.at("classical").expectClassical(f.q, 0).named("prep-cleared");
    s.at("entangled").expectEntangled(f.q0, f.q1);

    const std::string doc = s.exportJson();

    // Session block and one record per assertion.
    EXPECT_NE(doc.find("\"session\""), std::string::npos);
    EXPECT_NE(doc.find("\"ensemble_size\": 64"), std::string::npos);
    EXPECT_NE(doc.find("\"mode\": \"sample_final_state\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"prep-cleared\""), std::string::npos);
    EXPECT_NE(doc.find("\"entangled@entangled\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"entangled\""), std::string::npos);
    EXPECT_NE(doc.find("\"p_value\": "), std::string::npos);
    EXPECT_NE(doc.find("\"counts\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"all_passed\": true"), std::string::npos);

    // The file-writing overload round-trips the same document.
    const std::string path =
        ::testing::TempDir() + "qsa_session_export.json";
    s.exportJson(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), doc);
}

// --- Localization handoff ---------------------------------------------------

/** Misrouted-control fixture pair (bench_locate's mid-size shape). */
std::pair<Circuit, Circuit>
misroutedPair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 5);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        if (buggy)
            bugs::cModMulMisrouted(*circ, ctrl[0], x, b, 3, 7, anc[0]);
        else
            algo::cModMul(*circ, ctrl[0], x, b, 3, 7, anc[0]);
    }
    return pair;
}

TEST(SessionLocate, HandsOffToBugLocatorWithSessionPolicies)
{
    const auto [buggy, reference] = misroutedPair();

    session::Session s(buggy);
    s.seed(0x5e5510caull); // any session seed carries over
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});
    const auto report = s.locate(reference);
    EXPECT_TRUE(report.bugFound);
    EXPECT_LT(report.probes.size(), buggy.size());

    // The handoff is a pure derivation: BugLocator under the derived
    // config reproduces the same localization.
    const locate::BugLocator locator(
        buggy, reference,
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch));
    const auto direct = locator.locate();
    EXPECT_EQ(report.bugFound, direct.bugFound);
    EXPECT_EQ(report.firstFailing, direct.firstFailing);
    EXPECT_EQ(report.lastPassing, direct.lastPassing);
    EXPECT_EQ(report.probes.size(), direct.probes.size());

    // The derived config carries the session's knobs.
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.seed, s.config().seed);
    EXPECT_EQ(lc.ensembleSize, 64u);
    EXPECT_EQ(lc.maxEnsembleSize, 1024u);
}

TEST(SessionLocate, ResimulateSessionLocalizesPastMeasurement)
{
    // A session switched to Resimulate mode hands that mode to the
    // locator: the defect behind the mid-circuit measurement (a
    // flipped rotation after a classically-conditioned correction)
    // is bracketed — the default mode would clamp the probeable
    // range before it.
    const auto build = [](bool buggy) {
        Circuit c;
        const auto q = c.addRegister("q", 2);
        c.prepZ(q[0], 0);
        c.prepZ(q[1], 0);
        c.h(q[0]);
        c.measureQubits({q[0]}, "m");
        c.x(q[1]);
        c.conditionLast("m", 1);
        c.ry(q[1], buggy ? 0.9 : -0.9); // the post-measure defect
        return c;
    };
    const Circuit buggy = build(true);
    const Circuit reference = build(false);

    session::Session s(buggy);
    s.mode(EnsembleMode::Resimulate);
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});
    const auto report = s.locate(reference);
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_EQ(report.suspectBegin(), buggy.size() - 1)
        << report.summary();

    // The derived config carries the session's mode.
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.mode, EnsembleMode::Resimulate);
}

TEST(SessionLocate, ProbeFamilyCarriesIntoTheLocator)
{
    // A conditioned frame defect: the correction applies S where the
    // reference applies Z, so the divergence is a relative phase
    // invisible to every computational-basis probe until the verify
    // rotation. The session's swap-test family brackets the defect
    // itself; the default family brackets the verify step.
    // One-bit teleportation: measuring q0 leaves q1 in Z^m |psi>,
    // and the conditioned Z restores |psi> in both branches.
    const auto build = [](bool buggy) {
        Circuit c;
        const auto q = c.addRegister("q", 2);
        c.prepZ(q[0], 0);
        c.prepZ(q[1], 0);
        c.ry(q[0], 1.1); // the payload
        c.cnot(q[0], q[1]);
        c.h(q[0]);
        c.measureQubits({q[0]}, "m");
        if (buggy)
            c.phase(q[1], M_PI / 2); // [6] S frame instead of Z
        else
            c.z(q[1]);
        c.conditionLast("m", 1);
        c.ry(q[1], -1.1); // verify: rotates the error into view
        return c;
    };
    const Circuit buggy = build(true);
    const Circuit reference = build(false);
    const QubitRegister target = buggy.reg("q").slice(1, 1, "q1");

    session::Session s(buggy);
    s.mode(EnsembleMode::Resimulate);
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});

    const auto marginal = s.locate(reference, target);
    ASSERT_TRUE(marginal.bugFound) << marginal.summary();
    EXPECT_EQ(marginal.suspectBegin(), buggy.size() - 1)
        << marginal.summary();

    s.probes(locate::ProbeFamily::SwapTest);
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.family, locate::ProbeFamily::SwapTest);

    const auto swap = s.locate(reference, target);
    ASSERT_TRUE(swap.bugFound) << swap.summary();
    EXPECT_EQ(swap.suspectBegin(), 6u) << swap.summary();
    EXPECT_EQ(swap.decidedBy, locate::ProbeFamily::SwapTest);
}

// --- Registration-time validation -------------------------------------------

TEST(SessionValidation, UnknownLabelRejectedAtAddressTime)
{
    BellFixture f;
    session::Session s(f.circ);
    EXPECT_EXIT(s.at("nonexistent"), ::testing::ExitedWithCode(1),
                "no breakpoint labelled");
}

TEST(SessionValidation, BoundaryBeyondProgramRejected)
{
    BellFixture f;
    session::Session s(f.circ);
    EXPECT_EXIT(s.after(f.circ.size() + 1),
                ::testing::ExitedWithCode(1), "beyond the program");
    // The end boundary itself is valid.
    s.after(f.circ.size());
}

TEST(SessionValidation, MalformedSpecsRejectedAtRegistration)
{
    BellFixture f;
    session::Session s(f.circ);
    auto site = s.at("classical");
    EXPECT_EXIT(site.expectClassical(f.q, 4),
                ::testing::ExitedWithCode(1),
                "outside the register domain");
    EXPECT_EXIT(site.expectDistribution(f.q0, {0.5, 0.25, 0.25}),
                ::testing::ExitedWithCode(1), "2\\^width entries");
    EXPECT_EXIT(site.expectDistribution(f.q0, {0.7, 0.7}),
                ::testing::ExitedWithCode(1), "must sum to 1");
    EXPECT_EXIT(site.expectSuperposition(f.q0).alpha(1.5),
                ::testing::ExitedWithCode(1), "strictly between");
    EXPECT_EXIT(s.ensembleSize(0), ::testing::ExitedWithCode(1),
                "positive");
}

} // anonymous namespace
