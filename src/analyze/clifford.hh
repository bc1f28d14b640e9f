/**
 * @file
 * Clifford abstract interpretation over the circuit IR.
 *
 * A stabilizer tableau (Aaronson & Gottesman's CHP representation)
 * interprets the Clifford prefix of a program exactly and statically:
 * per-boundary register marginals are uniform distributions over
 * affine subspaces, so the classical / superposition / distribution
 * predicate kinds the simulated `locate::PredicateOracle` derives by
 * ensemble-free statevector sweeps are computable without touching a
 * single amplitude. Proq's projector view (PAPERS.md) is the
 * theoretical backdrop: the stabilizer fragment of the paper's
 * predicate trichotomy is a decidable abstract domain.
 *
 * Soundness contract (tested in tests/test_analyze_clifford.cc and
 * documented in DESIGN.md):
 *  - On Clifford-only programs the derived predicates match the
 *    simulated oracle boundary-for-boundary.
 *  - The first instruction outside the decidable fragment — a
 *    non-Clifford gate, a dense Unitary, a measurement with a
 *    nondeterministic outcome, a reset of an entangled qubit, or a
 *    condition on an unknown label — degrades the analysis to Top:
 *    boundaries past it report undecidable, never a wrong predicate.
 *
 * The same machinery canonicalises Clifford segments for the
 * locator's boundary-equivalence pre-pass: `CliffordUnitary` tracks
 * conjugation images of the X_q / Z_q generators (global phase drops
 * out, which is sound because every probe statistic is
 * phase-invariant), and `equivalentPrefixBoundary` returns the
 * largest boundary up to which a suspect and a reference program are
 * provably prefix-equivalent.
 */

#ifndef QSA_ANALYZE_CLIFFORD_HH
#define QSA_ANALYZE_CLIFFORD_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "locate/predicates.hh"

namespace qsa::analyze
{

/**
 * CHP stabilizer tableau: n destabilizer rows, n stabilizer rows,
 * one scratch row, each row a Pauli string with a sign bit.
 */
class StabilizerTableau
{
  public:
    /** The all-|0> state on `num_qubits` qubits. */
    explicit StabilizerTableau(std::size_t num_qubits);

    std::size_t numQubits() const { return n; }

    // Elementary Clifford generators (conjugation updates).
    void h(std::size_t q);
    void s(std::size_t q);
    void sdg(std::size_t q);
    void x(std::size_t q);
    void y(std::size_t q);
    void z(std::size_t q);
    void cnot(std::size_t c, std::size_t t);
    void cz(std::size_t c, std::size_t t);
    void swap(std::size_t a, std::size_t b);

    /** True when a Z measurement of `q` has a deterministic outcome. */
    bool measureIsDeterministic(std::size_t q) const;

    /**
     * The deterministic Z-measurement outcome of `q` (fatal when the
     * outcome is random). Does not collapse: a deterministic
     * measurement never changes the state.
     */
    bool deterministicValue(std::size_t q) const;

    /**
     * Measure `q` in Z, forcing the outcome to `outcome` when it is
     * random (both branches are valid stabilizer states; the forced
     * one is kept). Returns the actual outcome — `outcome` when the
     * measurement was random, the deterministic value otherwise.
     */
    bool forceMeasure(std::size_t q, bool outcome);

    /**
     * True when qubit `q` is in a product state with the rest of the
     * system (entanglement entropy zero: the stabilizer group
     * projects onto {I, P} locally).
     */
    bool qubitIsUnentangled(std::size_t q) const;

  private:
    std::size_t n;
    std::size_t words; ///< 64-bit words per bit-plane
    /** Row-major storage: row r has x-words, then z-words, then its
     *  sign lives in `signs`. Rows 0..n-1 destabilizers, n..2n-1
     *  stabilizers, 2n scratch. */
    std::vector<std::uint64_t> xbits, zbits;
    std::vector<bool> signs;

    bool xb(std::size_t row, std::size_t col) const;
    bool zb(std::size_t row, std::size_t col) const;
    void setx(std::size_t row, std::size_t col, bool v);
    void setz(std::size_t row, std::size_t col, bool v);
    void rowcopy(std::size_t dst, std::size_t src);
    void rowclear(std::size_t row);
    /** row h *= row i with the CHP phase bookkeeping. */
    void rowsum(std::size_t h, std::size_t i);
};

/**
 * One elementary Clifford operation; `cliffordDecompose` lowers IR
 * instructions into sequences of these.
 */
struct CliffordOp
{
    enum class Kind { H, S, Sdg, X, Y, Z, Cnot, Cz, Swap };
    Kind kind;
    std::size_t a = 0; ///< target (or control for Cnot/Cz)
    std::size_t b = 0; ///< second operand for Cnot/Cz/Swap
};

/**
 * Lower an instruction to elementary Clifford operations, snapping
 * Phase/Rz/Rx/Ry angles that are exact multiples of pi/2 (within
 * 1e-9). Returns nullopt for anything outside the Clifford group —
 * T gates, generic rotations, dense unitaries, two-or-more controls,
 * Fredkin — and for the non-unitary kinds (PrepZ, Measure). The
 * classical condition is ignored here; callers decide whether the
 * instruction fires. Global phase is dropped throughout, which is
 * sound for every statistic the tool derives.
 */
std::optional<std::vector<CliffordOp>>
cliffordDecompose(const circuit::Instruction &inst);

/** Convenience: apply a decomposed op sequence to a tableau. */
void applyCliffordOps(StabilizerTableau &tab,
                      const std::vector<CliffordOp> &ops);

/**
 * Exact static interpretation of one program's Clifford prefix.
 *
 * Boundary b is the state after the first b instructions (the same
 * convention as `locate::PredicateOracle`). Boundaries 0 through
 * `decidableBoundary()` inclusive are exact; later ones are Top.
 */
class CliffordSimulation
{
  public:
    explicit CliffordSimulation(const circuit::Circuit &circ);

    /** Total number of boundaries (program size + 1). */
    std::size_t numBoundaries() const { return total; }

    /** Largest decidable boundary index. */
    std::size_t decidableBoundary() const { return decidable; }

    /** True when boundary `b` is within the decidable prefix. */
    bool decidableAt(std::size_t b) const { return b <= decidable; }

    /**
     * Why the analysis degraded to Top (empty when the whole program
     * is decidable): names the first offending instruction.
     */
    const std::string &topReason() const { return reason; }

    /**
     * The statically derived register predicate at boundary `b`
     * (fatal when `b` is past the decidable prefix). Matches
     * `PredicateOracle::at(b)` exactly on Clifford-only programs.
     */
    locate::BoundaryPredicate
    predicateAt(std::size_t b, const circuit::QubitRegister &reg) const;

    /** Deterministically recorded measurement label values within
     *  the decidable prefix. */
    const std::map<std::string, std::uint64_t> &labels() const
    {
        return recorded;
    }

    /** The exact tableau at boundary `b` (fatal past the decidable
     *  prefix). */
    const StabilizerTableau &tableauAt(std::size_t b) const;

  private:
    std::size_t total = 0;
    std::size_t decidable = 0;
    std::string reason;
    std::vector<StabilizerTableau> tableaus; ///< per decidable boundary
    std::map<std::string, std::uint64_t> recorded;
};

/**
 * Pauli-conjugation tableau of a Clifford *unitary* (not a state):
 * the images of X_q and Z_q under conjugation, signs included,
 * global phase dropped. Two Clifford circuits with equal
 * CliffordUnitary act identically on every state up to global phase.
 */
class CliffordUnitary
{
  public:
    explicit CliffordUnitary(std::size_t num_qubits);

    void apply(const CliffordOp &op);
    void apply(const std::vector<CliffordOp> &ops);

    bool operator==(const CliffordUnitary &other) const;
    bool operator!=(const CliffordUnitary &other) const
    {
        return !(*this == other);
    }

  private:
    std::size_t n;
    /** Rows 0..n-1: images of X_q; rows n..2n-1: images of Z_q. */
    std::vector<std::uint64_t> xbits, zbits;
    std::vector<bool> signs;
    std::size_t words;

    void rowop(std::size_t row, const CliffordOp &op);
};

/**
 * Structural instruction equality modulo canonical operand order:
 * same kind, classical condition, angle (within 1e-12) and operands,
 * with controls compared as sets, Swap targets and the operands of
 * the fully symmetric diagonal gates (Z, Phase) compared as sets, and
 * dense matrices equal within 1e-12 in max norm (each read from its
 * own program's matrix table). Equal instructions act as the same
 * operation, so this is the one rule both the prefix-equivalence
 * pass below and the locator's mirror-junction cancellation use.
 */
bool structurallyEqual(const circuit::Circuit &sc,
                       const circuit::Instruction &a,
                       const circuit::Circuit &rc,
                       const circuit::Instruction &b);

/**
 * Largest *certified-equivalent* boundary E: the suspect and
 * reference prefixes of length E provably act identically (up to
 * global phase), so boundary E passes every probe family.
 * Certification advances by structural instruction equality (modulo
 * sorted controls and symmetric-operand order) and by equal-length
 * unconditioned Clifford runs with identical conjugation tableaux.
 * Boundaries interior to a matched run are skipped rather than
 * certified, which is sound for bracketing: the locator only uses E
 * as a passing lower bound and never probes below it. Returns 0 when
 * the programs differ immediately or have different qubit counts.
 */
std::size_t equivalentPrefixBoundary(const circuit::Circuit &suspect,
                                     const circuit::Circuit &reference);

} // namespace qsa::analyze

#endif // QSA_ANALYZE_CLIFFORD_HH
