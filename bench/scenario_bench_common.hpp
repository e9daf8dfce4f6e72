// Shared driver pieces for bench_scenarios: apply CLI overrides to
// registry entries, run them through core::ScenarioRunner, print and
// persist the outcomes. New workloads are registry entries, not new
// translation units.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "record.hpp"
#include "xbarsec/common/cli.hpp"
#include "xbarsec/common/log.hpp"
#include "xbarsec/common/threadpool.hpp"
#include "xbarsec/common/timer.hpp"
#include "xbarsec/core/report.hpp"
#include "xbarsec/core/scenario.hpp"

namespace xbarsec::benchscenario {

inline void register_standard_flags(Cli& cli) {
    cli.flag("out", "", "JSON results path (default BENCH_<bench>.json)");
    cli.flag("train", "", "override training samples");
    cli.flag("test", "", "override test samples");
    cli.flag("epochs", "", "override victim training epochs");
    cli.flag("runs", "", "override independent runs (fig5/table1)");
    cli.flag("eval", "", "override evaluation subsample (fig4/fig5; 0 = all)");
    cli.flag("queries", "", "override the fig5 query-count sweep (comma list)");
    cli.flag("lambdas", "", "override the fig5 power-loss weight sweep (comma list)");
    cli.flag("eps", "", "override the fig5 FGSM strength");
    cli.flag("seed", "", "override the base seed");
    cli.flag("data-dir", "", "directory with real MNIST/CIFAR files (optional)");
    cli.flag("threads", "0", "worker threads (0 = hardware)");
    cli.flag("ascii", "true", "print ASCII heat maps (fig3 scenarios)");
    cli.flag("smoke", "false", "tiny configuration for CI smoke runs");
}

inline void apply_overrides(core::ScenarioSpec& spec, const Cli& cli) {
    if (cli.provided("train")) spec.load.train_count = static_cast<std::size_t>(cli.integer("train"));
    if (cli.provided("test")) spec.load.test_count = static_cast<std::size_t>(cli.integer("test"));
    if (cli.provided("epochs")) {
        spec.victim.train.epochs = static_cast<std::size_t>(cli.integer("epochs"));
    }
    if (cli.provided("runs")) {
        spec.fig5.runs = static_cast<std::size_t>(cli.integer("runs"));
        spec.table1.runs = static_cast<std::size_t>(cli.integer("runs"));
    }
    if (cli.provided("eval")) {
        spec.fig4.eval_limit = static_cast<std::size_t>(cli.integer("eval"));
        spec.fig5.eval_limit = static_cast<std::size_t>(cli.integer("eval"));
    }
    if (cli.provided("queries")) {
        spec.fig5.query_counts.clear();
        for (const long long q : cli.integer_list("queries")) {
            spec.fig5.query_counts.push_back(static_cast<std::size_t>(q));
        }
    }
    if (cli.provided("lambdas")) spec.fig5.lambdas = cli.real_list("lambdas");
    if (cli.provided("eps")) spec.fig5.fgsm_eps = cli.real("eps");
    if (cli.provided("seed")) {
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        spec.load.seed = seed;
        spec.fig4.seed = seed + 33;
        spec.fig5.seed = seed;
        spec.table1.seed = seed;
    }
    if (cli.provided("data-dir")) spec.load.data_dir = cli.str("data-dir");
    if (cli.boolean("smoke")) core::apply_smoke(spec);
}

inline void print_outcome(const core::ScenarioOutcome& outcome, bool ascii) {
    std::cout << "\n## Scenario " << outcome.name << " — " << outcome.label << "\n";
    const std::string stem = core::results_dir() + "/" + core::sanitize_label(outcome.name);
    for (const auto& [name, table] : outcome.tables) {
        std::cout << "\n### " << name << "\n\n" << table;
        table.write_csv(stem + "_" + core::sanitize_label(name) + ".csv");
    }
    if (ascii) {
        for (const auto& [name, text] : outcome.notes) {
            std::cout << "\n### " << name << "\n" << text;
        }
    }
    for (const auto& grid : outcome.grids) {
        core::write_grid_csv(stem + "_" + core::sanitize_label(grid.name) + ".csv", grid.map,
                             grid.shape);
    }
    if (!outcome.metrics.empty()) {
        std::cout << "\nmetrics:";
        for (const auto& [key, value] : outcome.metrics) {
            std::cout << " " << key << "=" << Table::format_number(value, 4);
        }
        std::cout << "\n";
    }
}

/// Runs the named scenarios through one shared runner pool, printing each
/// outcome and recording every metric — plus the pool's thread count and
/// per-scenario wall time — to BENCH_<bench_name>.json via the shared
/// recorder (override the path with --out).
inline int run_scenarios(const std::string& bench_name, const std::vector<std::string>& names,
                         const Cli& cli, ThreadPool& pool, core::ScenarioRunner& runner) {
    bench::BenchRecorder rec(bench_name,
                             std::to_string(pool.thread_count()) + " worker threads, " +
                                 std::to_string(names.size()) + " scenario(s)" +
                                 (cli.boolean("smoke") ? ", smoke" : ""));
    for (const std::string& name : names) {
        core::ScenarioSpec spec = core::builtin_scenarios().get(name);
        apply_overrides(spec, cli);
        WallTimer scenario_timer;
        const core::ScenarioOutcome outcome = runner.run(spec);
        const double seconds = scenario_timer.seconds();
        print_outcome(outcome, cli.boolean("ascii"));
        rec.begin(name);
        rec.add("threads", pool.thread_count());
        rec.add("seconds", seconds);
        for (const auto& [key, value] : outcome.metrics) rec.add(key, value);
    }
    const std::string out_path =
        cli.provided("out") ? cli.str("out") : "BENCH_" + bench_name + ".json";
    if (!rec.write(out_path)) {
        std::fprintf(stderr, "%s: cannot write %s\n", bench_name.c_str(), out_path.c_str());
        return 1;
    }
    std::cout << "\nResults written to " << out_path << "\n";
    return 0;
}

}  // namespace xbarsec::benchscenario
