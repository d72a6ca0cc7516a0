#include "accel/hls_module.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/random.h"
#include "csd/smartssd.h"

namespace smartinf::accel {

namespace {

/** Fill @p v with small-magnitude gradients (training-like distribution). */
void
fillGradients(std::vector<float> &v, Rng &rng)
{
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, 1e-2));
}

/**
 * Fold the bit-pattern differences of @p dev against @p ref into
 * @p report. A NaN diff is kept, not dropped: it never compares greater.
 */
void
compareBits(const std::vector<float> &ref, const std::vector<float> &dev,
            SanityReport &report)
{
    for (std::size_t i = 0; i < ref.size(); ++i) {
        if (std::bit_cast<uint32_t>(ref[i]) == std::bit_cast<uint32_t>(dev[i]))
            continue;
        ++report.mismatches;
        const double diff =
            std::fabs(static_cast<double>(ref[i]) - dev[i]);
        if (std::isnan(diff) || diff > report.max_abs_diff)
            report.max_abs_diff = diff;
    }
}

/** Set passed/detail from the folded mismatches. */
void
finish(SanityReport &report, const char *pass_detail,
       const char *fail_detail)
{
    report.passed = report.mismatches == 0;
    report.detail = report.passed
                        ? pass_detail
                        : std::string(fail_detail) + ": " +
                              std::to_string(report.mismatches) +
                              " floats differ, max |diff| " +
                              std::to_string(report.max_abs_diff);
}

} // namespace

SanityReport
sanityCheckUpdater(const UpdaterModule &module, std::size_t n, unsigned steps,
                   uint64_t seed)
{
    SanityReport report;
    report.elements_checked = n * steps;

    Rng rng(seed);
    // Compare against the host reference under the module's own
    // hyperparameters to isolate the *logic*.
    const auto reference =
        optim::makeOptimizer(module.kind(), module.hyperparams());

    const int aux = optim::auxStateCount(module.kind());
    std::vector<float> master_ref(n), master_dev(n), grad(n);
    std::vector<std::vector<float>> states_ref(aux), states_dev(aux);
    for (int s = 0; s < aux; ++s) {
        states_ref[s].assign(n, 0.0f);
        states_dev[s].assign(n, 0.0f);
    }
    for (std::size_t i = 0; i < n; ++i)
        master_ref[i] = master_dev[i] = static_cast<float>(rng.normal());

    std::vector<float *> ref_ptrs, dev_ptrs;
    for (int s = 0; s < aux; ++s) {
        ref_ptrs.push_back(states_ref[s].data());
        dev_ptrs.push_back(states_dev[s].data());
    }

    for (unsigned t = 1; t <= steps; ++t) {
        fillGradients(grad, rng);
        reference->step(master_ref.data(), grad.data(), ref_ptrs.data(), n, t);
        module.processSubgroup(master_dev.data(), grad.data(),
                               dev_ptrs.data(), n, t);
    }

    compareBits(master_ref, master_dev, report);
    for (int s = 0; s < aux; ++s)
        compareBits(states_ref[s], states_dev[s], report);
    finish(report, "bit-identical to host reference",
           "diverges from host reference");
    return report;
}

SanityReport
sanityCheckDecompressor(const DecompressorModule &module, double keep_fraction,
                        std::size_t n, uint64_t seed)
{
    SanityReport report;
    report.elements_checked = n;

    Rng rng(seed);
    std::vector<float> dense(n);
    fillGradients(dense, rng);

    compress::TopKCompressor compressor(keep_fraction);
    const auto sparse = compressor.compress(dense.data(), n);

    std::vector<float> reference(n), device(n, 42.0f);
    compress::TopKCompressor::decompress(sparse, reference.data(), n);
    module.decompressSubgroup(sparse, 0, device.data(), n);

    compareBits(reference, device, report);
    finish(report, "scatter matches reference", "scatter mismatch");
    return report;
}

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
    fillGradients(grad, rng);

    const auto begin = std::chrono::steady_clock::now();
    module.processSubgroup(master.data(), grad.data(), ptrs.data(), n, 1);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();
    report.emulation_elems_per_sec = secs > 0.0 ? n / secs : 0.0;
    return report;
}

PerfReport
analyzeDecompressor(const DecompressorModule &module, double keep_fraction,
                    std::size_t n)
{
    PerfReport report;
    report.modeled_throughput = module.modelThroughput();
    report.keeps_up_with_ssd =
        report.modeled_throughput >= csd::smartssd::kSsdRead;

    Rng rng(99);
    std::vector<float> dense(n), out(n);
    fillGradients(dense, rng);
    compress::TopKCompressor compressor(keep_fraction);
    const auto sparse = compressor.compress(dense.data(), n);

    const auto begin = std::chrono::steady_clock::now();
    module.decompressSubgroup(sparse, 0, out.data(), n);
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();
    report.emulation_elems_per_sec = secs > 0.0 ? n / secs : 0.0;
    return report;
}

} // namespace smartinf::accel
