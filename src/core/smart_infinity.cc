#include "core/smart_infinity.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <semaphore>
#include <thread>

#include "common/logging.h"
#include "compress/topk.h"

namespace smartinf {

std::vector<std::string>
ClusterConfig::validate() const
{
    std::vector<std::string> errors;
    if (num_csds < 1)
        errors.push_back("num_csds must be >= 1, got " +
                         std::to_string(num_csds));
    if (!(keep_fraction > 0.0 && keep_fraction <= 1.0))
        errors.push_back("keep_fraction must be in (0, 1], got " +
                         std::to_string(keep_fraction));
    if (subgroup_elems == 0)
        errors.push_back("subgroup_elems must be >= 1, got 0");
    for (auto &error : optim::hyperparamErrors(hyperparams))
        errors.push_back(std::move(error));
    return errors;
}

/**
 * A parked thread that runs one shard per step: step() releases start,
 * the worker runs stepShard() and releases done. An exception is kept in
 * error and rethrown by step() on the calling thread.
 */
struct SmartInfinityCluster::Worker {
    std::binary_semaphore start{0};
    std::binary_semaphore done{0};
    bool stop = false;
    std::exception_ptr error;
    std::thread thread;
};

SmartInfinityCluster::SmartInfinityCluster(const ClusterConfig &config)
    : config_(config)
{
    const auto errors = config.validate();
    SI_REQUIRE(errors.empty(), "invalid ClusterConfig: ",
               train::joinErrors(errors));
}

SmartInfinityCluster::~SmartInfinityCluster()
{
    stopWorkers();
}

void
SmartInfinityCluster::startWorkers()
{
    for (std::size_t d = 1; d < csds_.size(); ++d) {
        auto worker = std::make_unique<Worker>();
        worker->thread = std::thread([this, d, w = worker.get()]() {
            for (;;) {
                w->start.acquire();
                if (w->stop)
                    return;
                try {
                    stepShard(d);
                } catch (...) {
                    w->error = std::current_exception();
                }
                w->done.release();
            }
        });
        workers_.push_back(std::move(worker));
    }
}

void
SmartInfinityCluster::stopWorkers()
{
    for (auto &worker : workers_) {
        worker->stop = true;
        worker->start.release();
        worker->thread.join();
    }
    workers_.clear();
}

std::size_t
SmartInfinityCluster::shardOffset(int idx) const
{
    std::size_t offset = 0;
    for (int d = 0; d < idx; ++d)
        offset += layouts_[d].elems;
    return offset;
}

std::size_t
SmartInfinityCluster::shardLength(int idx) const
{
    return layouts_[idx].elems;
}

void
SmartInfinityCluster::initialize(const float *params, std::size_t n)
{
    const std::size_t csds = static_cast<std::size_t>(config_.num_csds);
    SI_REQUIRE(n >= csds, "cannot shard ", n, " parameters over ", csds,
               " CSDs; every CSD needs at least one");
    stopWorkers();
    initialized_ = false;
    // Handlers hold device buffers of their CSD, so they go first.
    handlers_.clear();
    csds_.clear();
    layouts_.clear();
    master_cache_.assign(params, params + n);

    const int aux = optim::auxStateCount(config_.optimizer);
    const std::size_t per_csd = (n + csds - 1) / csds;
    // One subgroup of zeros serves every aux state of every shard, so
    // set-up holds no shard-sized buffer.
    const std::vector<float> zeros(std::min(config_.subgroup_elems, per_csd),
                                   0.0f);

    std::size_t offset = 0;
    for (std::size_t d = 0; d < csds; ++d) {
        // ceil(n/c) each, but leave one element for every later shard.
        const std::size_t len = std::min(per_csd, n - offset - (csds - 1 - d));
        train::ShardLayout layout{len, aux};

        auto device = std::make_unique<csd::Csd>(
            "csd" + std::to_string(d), layout.totalBytes());
        // Install the "device binary" (Fig 8): updater + decompressor.
        device->installUpdater(
            accel::makeUpdater(config_.optimizer, config_.hyperparams));
        if (config_.compression)
            device->installDecompressor(accel::makeTopKDecompressor());

        // Optimizer states are initially stored in the storage (Fig 1):
        // master parameters at offset 0, aux states zeroed behind them.
        // The SSD already reads zero there; the writes commit the state
        // pages now, so no timed step pays their first-touch faults.
        device->ssd().writeFloats(params + offset, len,
                                  layout.masterOffset());
        for (int a = 0; a < aux; ++a) {
            for (std::size_t done = 0; done < len; done += zeros.size()) {
                device->ssd().writeFloats(
                    zeros.data(), std::min(zeros.size(), len - done),
                    layout.auxOffset(a) + done * sizeof(float));
            }
        }

        handlers_.push_back(std::make_unique<train::TransferHandler>(
            *device, layout, std::min(config_.subgroup_elems, len)));
        layouts_.push_back(layout);
        csds_.push_back(std::move(device));
        offset += len;
    }
    SI_ASSERT(offset == n, "shard partition does not cover all parameters");
    shard_wire_bytes_.assign(csds_.size(), 0.0);
    startWorkers();
    initialized_ = true;
}

void
SmartInfinityCluster::requireInitialized() const
{
    SI_REQUIRE(initialized_, "cluster not initialized; call initialize()");
}

void
SmartInfinityCluster::step(const float *grads, std::size_t n, uint64_t t)
{
    requireInitialized();
    SI_REQUIRE(n == master_cache_.size(), "gradient size mismatch: ", n,
               " vs ", master_cache_.size());
    SI_REQUIRE(t >= 1, "optimizer steps are 1-based");

    // Every CSD updates its shard at once (§IV-D): release the workers,
    // run shard 0 here, then wait for all of them.
    step_grads_ = grads;
    step_t_ = t;
    for (auto &worker : workers_)
        worker->start.release();
    std::exception_ptr error;
    try {
        stepShard(0);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto &worker : workers_) {
        worker->done.acquire();
        if (!error)
            error = worker->error;
        worker->error = nullptr;
    }
    if (error)
        std::rethrow_exception(error);

    last_wire_bytes_ = 0.0;
    for (double bytes : shard_wire_bytes_)
        last_wire_bytes_ += bytes;
}

void
SmartInfinityCluster::stepShard(std::size_t d)
{
    const std::size_t offset = shardOffset(static_cast<int>(d));
    const std::size_t len = layouts_[d].elems;
    const float *grads = step_grads_ + offset;
    float *master = master_cache_.data() + offset;
    if (config_.compression) {
        // SmartComp: the GPU compresses each owner shard's gradients; only
        // the index+value pairs cross the interconnect, and the FPGA
        // decompressor rebuilds the dense vector (Fig 6).
        compress::TopKCompressor compressor(config_.keep_fraction);
        const auto sparse = compressor.compress(grads, len);
        shard_wire_bytes_[d] = static_cast<double>(sparse.wireBytes());
        handlers_[d]->runUpdateCompressed(sparse, step_t_, master);
    } else {
        // Dense gradients are offloaded to the owner CSD's SSD during the
        // backward pass (Fig 1(b) step 4).
        csds_[d]->ssd().writeFloats(grads, len, layouts_[d].gradOffset());
        shard_wire_bytes_[d] = static_cast<double>(len) * sizeof(float);
        handlers_[d]->runUpdate(step_t_, master);
    }
}

const float *
SmartInfinityCluster::masterParams() const
{
    requireInitialized();
    return master_cache_.data();
}

std::size_t
SmartInfinityCluster::paramCount() const
{
    return master_cache_.size();
}

const char *
SmartInfinityCluster::backendName() const
{
    return config_.compression ? "smart-infinity (SU+O+C)"
                               : "smart-infinity (SU+O)";
}

} // namespace smartinf
