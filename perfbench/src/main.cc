/**
 * @file
 * Benchmark driver: runs one workload (long-run, fleet or train) and
 * prints, as its last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics. Run it through
 * perfbench/run.py, which builds it first:
 *
 *   python3 perfbench/run.py --workload long-run --seed 2023 \
 *       --seconds 20 --trace 0
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * spans of a traced replay. Any failed output check is reported in the
 * result and makes the exit code nonzero.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/parallel.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "boreas_perfbench: %s\n"
                 "usage: boreas_perfbench --workload long-run|fleet|train "
                 "[--seed N] [--seconds S] [--trace 0|1] [--model PATH] "
                 "[--describe TEXT] [--env-overridden NAMES]\n"
                 "       boreas_perfbench --make-model PATH\n",
                 why);
    std::exit(2);
}

const char *
buildRefusal()
{
#if defined(BOREAS_CHECKED)
    return "BOREAS_CHECKED build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "sanitizer build";
#endif
#endif
    return nullptr;
}

/** JSON string literal (the manifest carries free text). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string describe = "unknown";
    std::string overridden;
    std::string make_model;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' || !(opt.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            opt.trace = value[0] == '1';
        } else if (arg == "--model") {
            opt.modelPath = value;
        } else if (arg == "--describe") {
            describe = value;
        } else if (arg == "--env-overridden") {
            overridden = value;
        } else if (arg == "--make-model") {
            make_model = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }

    if (const char *why = buildRefusal()) {
        std::fprintf(stderr, "boreas_perfbench: refusing to measure a %s\n",
                     why);
        return 2;
    }
    boreas::ThreadPool::resetGlobal(kLanes);
    if (!make_model.empty())
        return makeModelFixture(make_model);

    Outcome (*run)(const Options &) = nullptr;
    if (opt.workload == "long-run")
        run = runLongRun;
    else if (opt.workload == "fleet")
        run = runFleet;
    else if (opt.workload == "train")
        run = runTrain;
    else
        usage("--workload must be long-run, fleet or train");

    Outcome o = run(opt);
    if (o.attempted < 1)
        o.attempted = 1;
    if (!o.errors.empty() && o.failed == 0)
        o.failed = 1;

    // Manifest: what produced these numbers.
    std::string manifest = "{";
    auto field = [&](const std::string &k, const std::string &v) {
        manifest += (manifest.size() > 1 ? ", " : "") + quoted(k) + ": " +
                    quoted(v);
    };
    field("workload", opt.workload);
    field("seed", std::to_string(opt.seed));
    field("trace", opt.trace ? "1" : "0");
    field("lanes", std::to_string(boreas::ThreadPool::global().numThreads()));
    field("nproc", std::to_string(std::thread::hardware_concurrency()));
    field("thermal_solver", "spectral");
    field("grid", "64x64");
    field("step_us", "80");
    field("compiler", __VERSION__);
    field("build_type", PERFBENCH_BUILD_TYPE);
    field("git_describe", describe);
    field("env_overridden", overridden.empty() ? "none" : overridden);
    for (const auto &[k, v] : o.notes)
        field(k, v);
    manifest += "}";
    std::printf("manifest: %s\n", manifest.c_str());

    for (const std::string &e : o.errors)
        std::printf("FAILED CHECK: %s\n", e.c_str());
    std::printf("failed_frac: %.6g (%d of %d)\n",
                static_cast<double>(o.failed) / o.attempted, o.failed,
                o.attempted);

    std::string metrics;
    for (const Metric &m : o.metrics) {
        double v = m.value;
        if (!std::isfinite(v)) {
            std::printf("FAILED CHECK: metric %s is not finite\n",
                        m.name.c_str());
            o.failed = std::max(o.failed, 1);
            v = 0.0;
        }
        std::printf("%-30s %.6g %s\n", m.name.c_str(), v, m.unit.c_str());
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        metrics += (metrics.empty() ? "" : ", ") + quoted(m.name) +
                   ": {\"value\": " + num + ", \"unit\": " +
                   quoted(m.unit) + "}";
    }
    const bool correct = o.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", o.attempted, o.failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
