#include "accel/hls_module.h"

#include <chrono>
#include <vector>

#include "common/random.h"
#include "csd/smartssd.h"

namespace smartinf::accel {

PerfReport
analyzeUpdater(const UpdaterModule &module, std::size_t n)
{
    PerfReport report;
    report.modeled_throughput = module.modelThroughput();
    report.keeps_up_with_ssd =
        report.modeled_throughput >= csd::smartssd::kSsdRead;

    Rng rng(99);
    const int aux = optim::auxStateCount(module.kind());
    std::vector<float> master(n), grad(n);
    std::vector<std::vector<float>> states(aux);
    std::vector<float *> ptrs;
    for (int s = 0; s < aux; ++s) {
        states[s].assign(n, 0.0f);
        ptrs.push_back(states[s].data());
    }
    // Small-magnitude gradients (a training-like distribution).
    for (auto &g : grad)
        g = static_cast<float>(rng.normal(0.0, 1e-2));

    const auto begin = std::chrono::steady_clock::now();
    module.processSubgroup(master.data(), grad.data(), ptrs.data(), n, 1);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();
    report.emulation_elems_per_sec = secs > 0.0 ? n / secs : 0.0;
    return report;
}

} // namespace smartinf::accel
