/**
 * @file
 * Mirror-junction cancellation against its naive twin. A mirror probe
 * at boundary k simulates suspect[0, k) + adjoint(reference[start,
 * k)); the locator cancels the common suffix above the last
 * divergence first (locate::mirrorJunction). On seeded
 * measurement-free suspect/reference pairs — Clifford+T and dense
 * Unitary gates with one to three single-instruction edits — the
 * cancelled program must prepare the uncancelled program's state at
 * every boundary, and locate() must bracket the first edit with the
 * same probes for any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "analyze/clifford.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "common/rng.hh"
#include "locate/locate.hh"
#include "sim/gates.hh"
#include "sim/matrix.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;

/** One generated instruction, kept as a recipe so edits can swap it. */
struct Gate
{
    unsigned kind = 0;
    unsigned a = 0;
    unsigned b = 0;
    double angles[3] = {0.0, 0.0, 0.0};
};

constexpr unsigned kGateKinds = 12;

Gate
randomGate(unsigned n, Rng &rng)
{
    Gate g;
    g.kind = static_cast<unsigned>(rng.uniformInt(kGateKinds));
    g.a = static_cast<unsigned>(rng.uniformInt(n));
    g.b = static_cast<unsigned>(rng.uniformInt(n - 1));
    if (g.b >= g.a)
        ++g.b;
    for (double &angle : g.angles)
        angle = 2.0 * M_PI * rng.uniform();
    return g;
}

void
emit(Circuit &c, const Gate &g)
{
    switch (g.kind) {
      case 0: c.h(g.a); break;
      case 1: c.x(g.a); break;
      case 2: c.y(g.a); break;
      case 3: c.s(g.a); break;
      case 4: c.sdg(g.a); break;
      case 5: c.t(g.a); break;
      case 6: c.tdg(g.a); break;
      case 7: c.cnot(g.a, g.b); break;
      case 8: c.cz(g.a, g.b); break;
      case 9: c.swap(g.a, g.b); break;
      default: {
        // Dense single-qubit unitary Rz Ry Rz, controlled for kind 11.
        using namespace sim::gates;
        const auto m = sim::CMatrix::fromMat2(sim::matMul(
            rz(g.angles[0]),
            sim::matMul(ry(g.angles[1]), rz(g.angles[2]))));
        if (g.kind == 10)
            c.unitary(m, {g.a});
        else
            c.unitary(m, {g.a}, {g.b});
        break;
      }
    }
}

/** A generated (suspect, reference) pair and its edit sites. */
struct Pair
{
    Circuit suspect;
    Circuit reference;
    std::size_t prologue = 0; ///< common leading PrepZ instructions
    std::vector<std::size_t> edits; ///< ascending
};

/**
 * Seeded pair: an optional PrepZ prologue on every qubit, then 8-40
 * random gates on 2-5 qubits; the suspect replaces 1-3 of the gates
 * with a structurally different random gate.
 */
Pair
generatePair(std::uint64_t seed)
{
    Rng rng(seed);
    const unsigned n = 2 + static_cast<unsigned>(rng.uniformInt(4));
    const std::size_t body = 8 + rng.uniformInt(33);
    const bool prologue = rng.uniformInt(2) == 1;

    std::vector<Gate> ref_gates(body);
    for (auto &g : ref_gates)
        g = randomGate(n, rng);
    std::set<std::size_t> sites;
    const std::size_t num_edits = 1 + rng.uniformInt(3);
    while (sites.size() < num_edits)
        sites.insert(rng.uniformInt(body));

    Pair pair{Circuit(n), Circuit(n), 0, {}};
    if (prologue) {
        for (unsigned q = 0; q < n; ++q) {
            const unsigned bit = static_cast<unsigned>(rng.uniformInt(2));
            pair.suspect.prepZ(q, bit);
            pair.reference.prepZ(q, bit);
        }
        pair.prologue = n;
    }
    for (std::size_t i = 0; i < body; ++i) {
        emit(pair.reference, ref_gates[i]);
        if (sites.count(i) == 0) {
            emit(pair.suspect, ref_gates[i]);
            continue;
        }
        // Redraw until the edit is a real structural change.
        while (true) {
            emit(pair.suspect, randomGate(n, rng));
            const std::size_t at = pair.prologue + i;
            if (!analyze::structurallyEqual(
                    pair.suspect, pair.suspect.instructions()[at],
                    pair.reference, pair.reference.instructions()[at]))
                break;
            pair.suspect.truncate(at);
        }
        pair.edits.push_back(pair.prologue + i);
    }
    return pair;
}

/** suspect[0, cut) + adjoint(reference[start, cut)), simulated. */
sim::StateVector
mirrorState(const Pair &pair, std::size_t start, std::size_t cut)
{
    Circuit probe = pair.suspect.sliceRange(0, cut);
    probe.appendCircuit(pair.reference.sliceRange(start, cut).inverse());
    Rng rng(1);
    return circuit::runCircuit(probe, rng).state;
}

TEST(MirrorJunction, CancelledProbeMatchesNaiveProbeAtEveryBoundary)
{
    std::size_t cancelled = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Pair pair = generatePair(seed);
        const std::size_t size = pair.suspect.size();
        for (std::size_t k = 0; k <= size; ++k) {
            const std::size_t start = std::min(k, pair.prologue);
            const std::size_t cut = locate::mirrorJunction(
                pair.suspect, pair.reference, start, k);

            // The walk stops right above the last edit below k.
            std::size_t expected = start;
            for (std::size_t e : pair.edits)
                if (e < k)
                    expected = std::max(expected, e + 1);
            ASSERT_EQ(cut, expected) << "seed " << seed << " k " << k;
            cancelled += k - cut;

            const double fidelity =
                mirrorState(pair, start, cut)
                    .fidelity(mirrorState(pair, start, k));
            EXPECT_GE(fidelity, 1.0 - 1e-12)
                << "seed " << seed << " k " << k << " cut " << cut;
        }
    }
    EXPECT_GT(cancelled, 0u);
}

TEST(MirrorJunction, WalkStopsAtMarkersResetsAndMeasures)
{
    Circuit c(2);
    c.h(0);
    c.prepZ(1, 0);
    c.x(1);
    c.breakpoint("mark");
    c.cnot(0, 1);
    EXPECT_EQ(locate::mirrorJunction(c, c, 0, 5), 4u);
    EXPECT_EQ(locate::mirrorJunction(c, c, 0, 3), 2u);
    EXPECT_EQ(locate::mirrorJunction(c, c, 0, 2), 2u);
    EXPECT_EQ(locate::mirrorJunction(c, c, 0, 1), 0u);

    Circuit m(2);
    m.h(0);
    m.measureQubits({0}, "m0");
    m.h(1);
    EXPECT_EQ(locate::mirrorJunction(m, m, 0, 3), 2u);
}

/**
 * A pair whose first edit every probe past it can see: the naive
 * mirror fidelity with the initial state is at most 3/4 at every
 * boundary above the first edit, so a 64-shot probe misses it with
 * probability below 1e-7.
 */
Pair
visiblePair(std::uint64_t &seed)
{
    while (true) {
        Pair pair = generatePair(seed++);
        const sim::StateVector initial =
            mirrorState(pair, pair.prologue, pair.prologue);
        bool visible = true;
        for (std::size_t k = pair.edits.front() + 1;
             k <= pair.suspect.size() && visible; ++k) {
            visible = mirrorState(pair, pair.prologue, k)
                          .fidelity(initial) <= 0.75;
        }
        if (visible)
            return pair;
    }
}

TEST(MirrorJunction, LocateBracketsFirstEditForAnyThreadCount)
{
    std::uint64_t seed = 1000;
    for (int round = 0; round < 24; ++round) {
        const Pair pair = visiblePair(seed);
        std::vector<locate::LocalizationReport> reports;
        for (unsigned threads : {1u, 4u}) {
            locate::LocateConfig cfg;
            cfg.numThreads = threads;
            reports.push_back(
                locate::BugLocator(pair.suspect, pair.reference, cfg)
                    .locate());
        }
        const auto &report = reports.front();
        ASSERT_TRUE(report.bugFound) << "seed " << seed - 1;
        EXPECT_LE(report.lastPassing, pair.edits.front());
        EXPECT_GT(report.firstFailing, pair.edits.front());

        const auto &other = reports.back();
        EXPECT_EQ(other.lastPassing, report.lastPassing);
        EXPECT_EQ(other.firstFailing, report.firstFailing);
        ASSERT_EQ(other.probes.size(), report.probes.size());
        for (std::size_t i = 0; i < report.probes.size(); ++i) {
            EXPECT_EQ(other.probes[i].boundary, report.probes[i].boundary);
            EXPECT_EQ(other.probes[i].failed, report.probes[i].failed);
            EXPECT_EQ(other.probes[i].pValue, report.probes[i].pValue);
            EXPECT_EQ(other.probes[i].ensembleSize,
                      report.probes[i].ensembleSize);
        }
    }
}

} // namespace
