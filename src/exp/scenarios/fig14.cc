/**
 * @file
 * Fig 14: computational throughput of the updater and decompressor modules
 * compared to NVMe SSD read/write bandwidth. The modeled table prints the
 * SmartSSD's rates from csd/smartssd.h, the constants the simulator's
 * Calibration defaults run on, so it is deterministic. A second table
 * measures the *behavioral emulation* throughput of the same kernels on
 * the host (real element processing, the code the functional cluster
 * runs) with plain chrono timing — the one table in the suite whose
 * numbers are measured, not simulated.
 */
#include <chrono>
#include <vector>

#include "accel/decompressor.h"
#include "accel/updater.h"
#include "common/random.h"
#include "compress/topk.h"
#include "csd/smartssd.h"
#include "exp/scenarios/scenario_util.h"
#include "exp/scenarios/scenarios.h"

namespace smartinf::exp::scenarios {

namespace {

/** Run @p body repeatedly for ~50 ms; returns bytes/s given bytes/call. */
template <typename Fn>
double
measureThroughput(double bytes_per_call, Fn &&body)
{
    using clock = std::chrono::steady_clock;
    body(); // warm-up
    const auto start = clock::now();
    const auto deadline = start + std::chrono::milliseconds(50);
    std::size_t calls = 0;
    auto now = start;
    while (now < deadline) {
        body();
        ++calls;
        now = clock::now();
    }
    const double secs =
        std::chrono::duration<double>(now - start).count();
    return bytes_per_call * static_cast<double>(calls) / secs;
}

ScenarioResult
runFig14(ScenarioContext &)
{
    ScenarioResult out;

    Table modeled("Fig 14: modeled module throughput vs SSD (GB/s)");
    modeled.setHeader({"size", "updater", "decomp+update path", "SSD read",
                       "SSD write"});
    auto updater = accel::makeUpdater(optim::OptimizerKind::Adam,
                                      optim::Hyperparams{});
    auto decomp = accel::makeTopKDecompressor();
    for (double billions : {0.34, 1.7, 4.0, 8.4}) {
        modeled.addRow({Table::num(billions, 2) + "B",
                        Table::num(updater->modelThroughput() / 1e9, 2),
                        Table::num(decomp->modelThroughput() / 1e9, 2),
                        Table::num(csd::smartssd::kSsdRead / 1e9, 2),
                        Table::num(csd::smartssd::kSsdWrite / 1e9, 2)});
    }
    out.tables.push_back(std::move(modeled));

    Table emulated(
        "Host-side behavioral emulation throughput (measured, GB/s)");
    emulated.setHeader({"kernel", "elements", "GB/s"});
    for (const std::size_t n : {std::size_t{1} << 14, std::size_t{1} << 18}) {
        {
            Rng rng(1);
            std::vector<float> master(n), grad(n), mmt(n, 0.0f),
                var(n, 0.0f);
            for (auto &g : grad)
                g = static_cast<float>(rng.normal(0.0, 0.01));
            float *states[] = {mmt.data(), var.data()};
            std::uint64_t t = 0;
            const double gbps = measureThroughput(
                static_cast<double>(n) * 16.0, // state-stream bytes
                [&] {
                    updater->processSubgroup(master.data(), grad.data(),
                                             states, n, ++t);
                });
            emulated.addRow({"Adam updater", std::to_string(n),
                             Table::num(gbps / 1e9, 2)});
        }
        {
            Rng rng(2);
            std::vector<float> dense(n), dout(n);
            for (auto &g : dense)
                g = static_cast<float>(rng.normal());
            compress::TopKCompressor comp(0.01);
            const auto sparse = comp.compress(dense.data(), n);
            const double gbps = measureThroughput(
                static_cast<double>(n) * 4.0, // dense output bytes
                [&] {
                    decomp->decompressSubgroup(sparse, 0, dout.data(), n);
                });
            emulated.addRow({"Top-K decompressor", std::to_string(n),
                             Table::num(gbps / 1e9, 2)});
        }
        {
            Rng rng(3);
            std::vector<float> dense(n);
            for (auto &g : dense)
                g = static_cast<float>(rng.normal());
            compress::TopKCompressor comp(0.01);
            double sink = 0.0;
            const double gbps = measureThroughput(
                static_cast<double>(n) * 4.0, [&] {
                    sink += comp.compress(dense.data(), n).wireBytes();
                });
            (void)sink;
            emulated.addRow({"GPU-side Top-K compress", std::to_string(n),
                             Table::num(gbps / 1e9, 2)});
        }
    }
    out.tables.push_back(std::move(emulated));

    out.notes.push_back(
        "paper anchors (Fig 14): updater > 7 GB/s; decompressor slightly "
        "above SSD read (~3.2 GB/s); write well below read.");
    out.notes.push_back(
        "the emulation table is measured on this host and varies run to "
        "run; every other scenario is deterministic simulation.");
    return out;
}

} // namespace

void
registerFig14()
{
    ScenarioRegistry::instance().add(
        {"fig14", "Module throughput vs SSD bandwidth (modeled + measured)",
         runFig14});
}

} // namespace smartinf::exp::scenarios
