// Unit and property tests for the logic algebras: 3-valued Kleene operators
// and 64-lane parallel patterns.

#include "logic/pattern.hpp"
#include "logic/val3.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace seqlearn::logic {
namespace {

constexpr std::array<Val3, 3> kAll{Val3::Zero, Val3::One, Val3::X};

const std::array<GateOp, 10> kAllOps{GateOp::Const0, GateOp::Const1, GateOp::Buf,
                                     GateOp::Not,    GateOp::And,    GateOp::Nand,
                                     GateOp::Or,     GateOp::Nor,    GateOp::Xor,
                                     GateOp::Xnor};

TEST(Val3, NotTruthTable) {
    EXPECT_EQ(v3_not(Val3::Zero), Val3::One);
    EXPECT_EQ(v3_not(Val3::One), Val3::Zero);
    EXPECT_EQ(v3_not(Val3::X), Val3::X);
}

TEST(Val3, AndTruthTable) {
    EXPECT_EQ(v3_and(Val3::Zero, Val3::X), Val3::Zero);
    EXPECT_EQ(v3_and(Val3::X, Val3::Zero), Val3::Zero);
    EXPECT_EQ(v3_and(Val3::One, Val3::One), Val3::One);
    EXPECT_EQ(v3_and(Val3::One, Val3::X), Val3::X);
    EXPECT_EQ(v3_and(Val3::X, Val3::X), Val3::X);
}

TEST(Val3, OrTruthTable) {
    EXPECT_EQ(v3_or(Val3::One, Val3::X), Val3::One);
    EXPECT_EQ(v3_or(Val3::X, Val3::One), Val3::One);
    EXPECT_EQ(v3_or(Val3::Zero, Val3::Zero), Val3::Zero);
    EXPECT_EQ(v3_or(Val3::Zero, Val3::X), Val3::X);
}

TEST(Val3, XorTruthTable) {
    EXPECT_EQ(v3_xor(Val3::Zero, Val3::One), Val3::One);
    EXPECT_EQ(v3_xor(Val3::One, Val3::One), Val3::Zero);
    EXPECT_EQ(v3_xor(Val3::X, Val3::One), Val3::X);
    EXPECT_EQ(v3_xor(Val3::Zero, Val3::X), Val3::X);
}

TEST(Val3, DeMorganHoldsOverAllPairs) {
    for (const Val3 a : kAll) {
        for (const Val3 b : kAll) {
            EXPECT_EQ(v3_not(v3_and(a, b)), v3_or(v3_not(a), v3_not(b)));
            EXPECT_EQ(v3_not(v3_or(a, b)), v3_and(v3_not(a), v3_not(b)));
        }
    }
}

TEST(Val3, Commutativity) {
    for (const Val3 a : kAll) {
        for (const Val3 b : kAll) {
            EXPECT_EQ(v3_and(a, b), v3_and(b, a));
            EXPECT_EQ(v3_or(a, b), v3_or(b, a));
            EXPECT_EQ(v3_xor(a, b), v3_xor(b, a));
        }
    }
}

// Information monotonicity: refining an X input to a binary value never
// flips an already-binary output (it can only refine X outputs). This is the
// property that makes learned implications sound.
TEST(Val3, OperatorsAreMonotoneInInformationOrder) {
    auto refines = [](Val3 coarse, Val3 fine) {
        return coarse == Val3::X || coarse == fine;
    };
    for (const GateOp op : kAllOps) {
        for (const Val3 a : kAll) {
            for (const Val3 b : kAll) {
                const std::array<Val3, 2> coarse{a, b};
                const Val3 out_coarse = eval_op(op, coarse);
                for (const Val3 ra : kAll) {
                    for (const Val3 rb : kAll) {
                        if (!refines(a, ra) || !refines(b, rb)) continue;
                        const std::array<Val3, 2> fine{ra, rb};
                        const Val3 out_fine = eval_op(op, fine);
                        EXPECT_TRUE(refines(out_coarse, out_fine))
                            << to_string(op) << " not monotone";
                    }
                }
            }
        }
    }
}

TEST(Val3, EvalOpWideGates) {
    const std::vector<Val3> all_one(5, Val3::One);
    EXPECT_EQ(eval_op(GateOp::And, all_one), Val3::One);
    EXPECT_EQ(eval_op(GateOp::Nand, all_one), Val3::Zero);
    std::vector<Val3> with_zero = all_one;
    with_zero[3] = Val3::Zero;
    EXPECT_EQ(eval_op(GateOp::And, with_zero), Val3::Zero);
    EXPECT_EQ(eval_op(GateOp::Nor, with_zero), Val3::Zero);
    std::vector<Val3> xor_in{Val3::One, Val3::One, Val3::One};
    EXPECT_EQ(eval_op(GateOp::Xor, xor_in), Val3::One);
    EXPECT_EQ(eval_op(GateOp::Xnor, xor_in), Val3::Zero);
}

TEST(Val3, EvalOpConstantsIgnoreInputs) {
    const std::vector<Val3> ins{Val3::X, Val3::One};
    EXPECT_EQ(eval_op(GateOp::Const0, ins), Val3::Zero);
    EXPECT_EQ(eval_op(GateOp::Const1, ins), Val3::One);
}

TEST(Val3, ControllingValues) {
    EXPECT_EQ(controlling_value(GateOp::And), Val3::Zero);
    EXPECT_EQ(controlling_value(GateOp::Nand), Val3::Zero);
    EXPECT_EQ(controlling_value(GateOp::Or), Val3::One);
    EXPECT_EQ(controlling_value(GateOp::Nor), Val3::One);
    EXPECT_EQ(controlling_value(GateOp::Xor), Val3::X);
    EXPECT_EQ(controlling_value(GateOp::Buf), Val3::X);
}

TEST(Val3, OutputInversionParity) {
    EXPECT_TRUE(output_inverted(GateOp::Nand));
    EXPECT_TRUE(output_inverted(GateOp::Nor));
    EXPECT_TRUE(output_inverted(GateOp::Not));
    EXPECT_TRUE(output_inverted(GateOp::Xnor));
    EXPECT_FALSE(output_inverted(GateOp::And));
    EXPECT_FALSE(output_inverted(GateOp::Buf));
}

TEST(Val3, CharConversionRoundTrip) {
    for (const Val3 v : kAll) EXPECT_EQ(val3_from_char(to_char(v)), v);
    EXPECT_THROW(val3_from_char('z'), std::invalid_argument);
}

// --- Pattern -------------------------------------------------------------

TEST(Pattern, LaneSetGetRoundTrip) {
    Pattern p = kPatAllX;
    pat_set(p, 0, Val3::One);
    pat_set(p, 5, Val3::Zero);
    pat_set(p, 63, Val3::One);
    EXPECT_EQ(pat_get(p, 0), Val3::One);
    EXPECT_EQ(pat_get(p, 5), Val3::Zero);
    EXPECT_EQ(pat_get(p, 63), Val3::One);
    EXPECT_EQ(pat_get(p, 7), Val3::X);
    pat_set(p, 0, Val3::X);
    EXPECT_EQ(pat_get(p, 0), Val3::X);
}

TEST(Pattern, BroadcastMatchesLanes) {
    for (const Val3 v : kAll) {
        const Pattern p = pat_broadcast(v);
        for (int lane = 0; lane < 64; lane += 13) EXPECT_EQ(pat_get(p, lane), v);
    }
}

// Every pattern operator must match the scalar operator lane by lane.
TEST(Pattern, OpsMatchScalarLanewise) {
    // Build two patterns cycling through all 9 value pairs.
    Pattern a = kPatAllX, b = kPatAllX;
    for (int lane = 0; lane < 64; ++lane) {
        pat_set(a, lane, kAll[static_cast<std::size_t>(lane) % 3]);
        pat_set(b, lane, kAll[(static_cast<std::size_t>(lane) / 3) % 3]);
    }
    const Pattern pn = pat_not(a);
    const Pattern pa = pat_and(a, b);
    const Pattern po = pat_or(a, b);
    const Pattern px = pat_xor(a, b);
    for (int lane = 0; lane < 64; ++lane) {
        const Val3 va = pat_get(a, lane);
        const Val3 vb = pat_get(b, lane);
        EXPECT_EQ(pat_get(pn, lane), v3_not(va));
        EXPECT_EQ(pat_get(pa, lane), v3_and(va, vb));
        EXPECT_EQ(pat_get(po, lane), v3_or(va, vb));
        EXPECT_EQ(pat_get(px, lane), v3_xor(va, vb));
    }
}

TEST(Pattern, EvalOpMatchesScalarForAllOps) {
    Pattern a = kPatAllX, b = kPatAllX, c = kPatAllX;
    for (int lane = 0; lane < 64; ++lane) {
        pat_set(a, lane, kAll[static_cast<std::size_t>(lane) % 3]);
        pat_set(b, lane, kAll[(static_cast<std::size_t>(lane) / 3) % 3]);
        pat_set(c, lane, kAll[(static_cast<std::size_t>(lane) / 9) % 3]);
    }
    const std::array<Pattern, 3> pats{a, b, c};
    for (const GateOp op : kAllOps) {
        const Pattern out = eval_op(op, pats.data(), 3);
        for (int lane = 0; lane < 64; ++lane) {
            const std::array<Val3, 3> ins{pat_get(a, lane), pat_get(b, lane), pat_get(c, lane)};
            EXPECT_EQ(pat_get(out, lane), eval_op(op, ins)) << to_string(op) << " lane " << lane;
        }
    }
}

TEST(Pattern, KnownAndDiffMasks) {
    Pattern a = kPatAllX, b = kPatAllX;
    pat_set(a, 0, Val3::One);
    pat_set(b, 0, Val3::Zero);  // differ
    pat_set(a, 1, Val3::One);
    pat_set(b, 1, Val3::One);  // equal
    pat_set(a, 2, Val3::One);  // b unknown
    EXPECT_EQ(pat_known(a) & 7ULL, 7ULL);
    EXPECT_EQ(pat_known(b) & 7ULL, 3ULL);
    EXPECT_EQ(pat_diff(a, b) & 7ULL, 1ULL);
}

}  // namespace
}  // namespace seqlearn::logic
