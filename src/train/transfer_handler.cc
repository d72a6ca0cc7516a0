#include "train/transfer_handler.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace smartinf::train {

TransferHandler::TransferHandler(csd::Csd &csd, const ShardLayout &layout,
                                 std::size_t subgroup_elems)
    : csd_(csd), layout_(layout), subgroup_elems_(subgroup_elems)
{
    SI_REQUIRE(layout.elems > 0, "empty shard");
    SI_REQUIRE(subgroup_elems > 0, "subgroup size must be positive");
    SI_REQUIRE(csd.ssd().capacity() >= layout.totalBytes(),
               "CSD functional capacity too small for shard");

    // Pre-allocate the device buffers once (the paper's buffer
    // pre-allocation: no per-tasklet or per-step allocation, and a fixed
    // device-memory footprint).
    const std::size_t bytes = subgroup_elems * sizeof(float);
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        Buffers &slot = slots_[k];
        const std::string tag = "slot" + std::to_string(k);
        slot.grad = csd_.fpgaMemory().allocate(bytes, tag + ".grad");
        slot.master = csd_.fpgaMemory().allocate(bytes, tag + ".master");
        for (int a = 0; a < layout.aux_states; ++a) {
            slot.aux.push_back(csd_.fpgaMemory().allocate(
                bytes, tag + ".aux" + std::to_string(a)));
            slot.states.push_back(slot.aux.back().floats());
        }
    }
}

std::size_t
TransferHandler::subgroupCount() const
{
    return (layout_.elems + subgroup_elems_ - 1) / subgroup_elems_;
}

void
TransferHandler::runUpdate(uint64_t step, float *host_params_out)
{
    process(nullptr, step, host_params_out);
}

void
TransferHandler::runUpdateCompressed(const compress::SparseGradient &sparse,
                                     uint64_t step, float *host_params_out)
{
    SI_REQUIRE(csd_.decompressor() != nullptr,
               "no decompressor installed on ", csd_.name());
    SI_REQUIRE(sparse.dense_size == layout_.elems,
               "sparse gradient sized for a different shard");
    const bool ascending =
        std::adjacent_find(sparse.indices.begin(), sparse.indices.end(),
                           std::greater_equal<>()) == sparse.indices.end();
    SI_REQUIRE(ascending, "sparse gradient indices must strictly ascend");
    process(&sparse, step, host_params_out);
}

void
TransferHandler::process(const compress::SparseGradient *sparse,
                         uint64_t step, float *host_params_out)
{
    auto *updater = csd_.updater();
    SI_REQUIRE(updater != nullptr, "no updater installed on ", csd_.name());
    const int aux = layout_.aux_states;
    SI_REQUIRE(optim::auxStateCount(updater->kind()) == aux,
               "updater state count does not match shard layout");

    const std::size_t chunk = subgroup_elems_;
    const std::size_t groups = subgroupCount();
    const std::size_t slots = slots_.size();

    auto elems_of = [&](std::size_t s) {
        return std::min(chunk, layout_.elems - s * chunk);
    };

    // Loader-side work: SSD -> device buffers (P2P pread).
    auto load_subgroup = [&](std::size_t s, Buffers &buf) {
        const std::size_t n = elems_of(s);
        const std::size_t elem_off = s * chunk;
        csd_.ssd().readFloats(buf.master.floats(), n,
                              layout_.masterOffset() +
                                  elem_off * sizeof(float));
        for (int a = 0; a < aux; ++a) {
            csd_.ssd().readFloats(buf.aux[a].floats(), n,
                                  layout_.auxOffset(a) +
                                      elem_off * sizeof(float));
        }
        if (sparse == nullptr) {
            csd_.ssd().readFloats(buf.grad.floats(), n,
                                  layout_.gradOffset() +
                                      elem_off * sizeof(float));
        }
    };

    // Compute-side work: decompress (if needed), update, write back with
    // urgent-params-first ordering, surface the upstream copy.
    auto compute_subgroup = [&](std::size_t s, Buffers &buf) {
        const std::size_t n = elems_of(s);
        const std::size_t elem_off = s * chunk;
        if (sparse != nullptr) {
            csd_.decompressor()->decompressSubgroup(*sparse, elem_off,
                                                    buf.grad.floats(), n);
        }
        updater->processSubgroup(buf.master.floats(), buf.grad.floats(),
                                 buf.states.data(), n, step);

        // Urgent: master parameters back to SSD and up to the host.
        csd_.ssd().writeFloats(buf.master.floats(), n,
                               layout_.masterOffset() +
                                   elem_off * sizeof(float));
        if (host_params_out != nullptr) {
            std::memcpy(host_params_out + elem_off, buf.master.floats(),
                        n * sizeof(float));
        }
        // Deferred: momentum/variance (only needed next iteration).
        for (int a = 0; a < aux; ++a) {
            csd_.ssd().writeFloats(buf.aux[a].floats(), n,
                                   layout_.auxOffset(a) +
                                       elem_off * sizeof(float));
        }
    };

    // Fig 5(b): thread 1 loads subgroup s+1 while thread 0 computes and
    // writes subgroup s, alternating over the two slots. If either side
    // throws, it sets `failed` and releases the semaphore the other side
    // may be blocked on; that side stops at its next acquire, and the
    // exception is rethrown here after the join.
    std::counting_semaphore<2> free_slots(slots);
    std::counting_semaphore<2> ready_slots(0);
    std::atomic<bool> failed{false};
    std::exception_ptr loader_error;

    std::thread loader([&]() {
        try {
            for (std::size_t s = 0; s < groups; ++s) {
                free_slots.acquire();
                if (failed)
                    return;
                load_subgroup(s, slots_[s % slots]);
                ready_slots.release();
            }
        } catch (...) {
            loader_error = std::current_exception();
            failed = true;
            ready_slots.release();
        }
    });

    std::exception_ptr error;
    try {
        for (std::size_t s = 0; s < groups; ++s) {
            ready_slots.acquire();
            if (failed)
                break;
            compute_subgroup(s, slots_[s % slots]);
            free_slots.release();
        }
    } catch (...) {
        error = std::current_exception();
        failed = true;
        free_slots.release();
    }
    loader.join();
    if (!error)
        error = loader_error;
    if (error)
        std::rethrow_exception(error);
}

} // namespace smartinf::train
