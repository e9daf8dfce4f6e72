// Tests for the scenario registry and the unified runner: lookup errors,
// built-in coverage, deployment with decorator stacks, and smoke runs of
// the cheap experiment kinds.
#include <gtest/gtest.h>

#include "xbarsec/core/scenario.hpp"

namespace xbarsec::core {
namespace {

/// A spec shrunk far below apply_smoke for unit-test budgets.
ScenarioSpec tiny(const std::string& name) {
    ScenarioSpec spec = builtin_scenarios().get(name);
    apply_smoke(spec);
    spec.load.train_count = 300;
    spec.load.test_count = 100;
    spec.victim.train.epochs = 3;
    spec.fig4.strengths = {0, 5};
    spec.fig4.eval_limit = 60;
    return spec;
}

TEST(ScenarioRegistry, BuiltinsCoverEveryExperimentKind) {
    ScenarioRegistry& registry = builtin_scenarios();
    EXPECT_GE(registry.size(), 20u);
    for (const char* name :
         {"fig3/mnist/softmax", "fig4/mnist/softmax", "fig4/cifar/linear", "fig5/mnist/label",
          "fig5/cifar/raw", "table1/mnist/linear", "probe/mnist/undefended",
          "probe/mnist/defended", "fig4/mnist/softmax-detected"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
    }
    EXPECT_EQ(registry.names("fig5/").size(), 5u);
    EXPECT_EQ(registry.names("probe/").size(), 2u);
}

TEST(ScenarioRegistry, UnknownNameThrowsWithAvailableList) {
    try {
        builtin_scenarios().get("fig9/venus/tanh");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown scenario 'fig9/venus/tanh'"), std::string::npos);
        EXPECT_NE(what.find("fig4/mnist/softmax"), std::string::npos);
    }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndEmptyNames) {
    ScenarioRegistry registry;
    ScenarioSpec spec;
    EXPECT_THROW(registry.add(spec), ConfigError);  // empty name
    spec.name = "x";
    registry.add(spec);
    EXPECT_THROW(registry.add(spec), ConfigError);  // duplicate
    EXPECT_EQ(registry.names().size(), 1u);
}

TEST(ScenarioRegistry, PrefixFilterIsAnchored) {
    ScenarioRegistry registry;
    for (const char* name : {"a/x", "a/y", "b/a/x"}) {
        ScenarioSpec spec;
        spec.name = name;
        registry.add(spec);
    }
    EXPECT_EQ(registry.names("a/").size(), 2u);
    EXPECT_EQ(registry.names("").size(), 3u);
}

TEST(ScenarioRunner, DeploysDecoratorStacks) {
    ScenarioRunner runner;
    DeployedScenario d = runner.deploy(tiny("probe/mnist/defended"));
    EXPECT_EQ(d.spec().defenses.size(), 2u);  // dummies + sensing noise
    EXPECT_NE(&d.stack_top(), static_cast<Oracle*>(&d.backend()));  // stack is non-trivial
    EXPECT_NE(&d.oracle(), &d.stack_top());  // served through the default session
    EXPECT_EQ(d.oracle().inputs(), 784u);
    // One query through the top of the stack is counted once.
    (void)d.oracle().query_label(tensor::Vector(784, 0.1));
    EXPECT_EQ(d.backend().counters().inference, 1u);
    // The spec's power budget sits on that session.
    (void)d.oracle().query_power(tensor::Vector(784, 0.1));
    EXPECT_EQ(d.session().budget_spent().power, 1u);
}

TEST(ScenarioRunner, RunsFig4ScenarioEndToEnd) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig4/mnist/softmax"));
    EXPECT_EQ(outcome.name, "fig4/mnist/softmax");
    EXPECT_EQ(outcome.label, "MNIST-like/softmax");
    ASSERT_EQ(outcome.tables.size(), 1u);
    EXPECT_EQ(outcome.tables[0].second.rows(), 2u);   // two strengths
    EXPECT_EQ(outcome.tables[0].second.columns(), 6u);
    EXPECT_GT(outcome.metrics.at("clean_accuracy"), 0.5);
    // The probe is the only attacker cost in the direct-evaluation mode.
    EXPECT_EQ(outcome.attacker_cost.power, 784u);
    EXPECT_EQ(outcome.attacker_cost.inference, 0u);
}

TEST(ScenarioRunner, DefendedProbeDegradesRecovery) {
    ScenarioRunner runner;
    const ScenarioOutcome clean = runner.run(tiny("probe/mnist/undefended"));
    const ScenarioOutcome defended = runner.run(tiny("probe/mnist/defended"));
    EXPECT_LT(clean.metrics.at("l1_relative_error"), 1e-9);
    EXPECT_DOUBLE_EQ(clean.metrics.at("topk_agreement"), 1.0);
    EXPECT_GT(defended.metrics.at("l1_relative_error"), 0.1);
    EXPECT_LT(defended.metrics.at("topk_agreement"), 0.9);
}

TEST(ScenarioRunner, DetectorScenarioReportsFlaggedFraction) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig4/mnist/softmax-detected"));
    ASSERT_EQ(outcome.metrics.count("detector_flagged_fraction"), 1u);
    ASSERT_EQ(outcome.metrics.count("detector_screened"), 1u);
    // Evaluation ran through the oracle: inference queries were counted.
    EXPECT_GT(outcome.attacker_cost.inference, 0u);
}

TEST(ScenarioRunner, Fig3ScenarioEmitsGridsAndNotes) {
    ScenarioRunner runner;
    const ScenarioOutcome outcome = runner.run(tiny("fig3/mnist/softmax"));
    ASSERT_EQ(outcome.grids.size(), 2u);
    EXPECT_EQ(outcome.grids[0].map.size(), 784u);
    EXPECT_EQ(outcome.notes.size(), 2u);
    EXPECT_GT(outcome.metrics.at("correlation"), 0.2);
}

TEST(ScenarioRunner, RejectsUnsupportedDefenseCombinations) {
    ScenarioRunner runner;
    ScenarioSpec spec = tiny("table1/mnist/softmax");
    DefenseSpec defense;
    defense.kind = DefenseSpec::Kind::NoisyPower;
    spec.defenses.push_back(defense);
    EXPECT_THROW(runner.run(spec), ConfigError);

    // fig5 and table1 never serve through the default session, so a
    // session policy is rejected rather than silently ignored.
    ScenarioSpec fig5_spec = tiny("fig5/mnist/label");
    fig5_spec.screen = true;
    EXPECT_THROW(runner.run(fig5_spec), ConfigError);
    ScenarioSpec table1_spec = tiny("table1/mnist/softmax");
    table1_spec.budget.max_power = 784;
    EXPECT_THROW(runner.run(table1_spec), ConfigError);
}

TEST(ScenarioSmoke, ShrinksSweeps) {
    ScenarioSpec spec = builtin_scenarios().get("fig5/mnist/label");
    apply_smoke(spec);
    EXPECT_EQ(spec.load.train_count, 400u);
    EXPECT_EQ(spec.fig5.runs, 2u);
    EXPECT_EQ(spec.fig5.query_counts.size(), 2u);
}

}  // namespace
}  // namespace xbarsec::core
