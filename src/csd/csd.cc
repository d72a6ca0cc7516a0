#include "csd/csd.h"

#include "common/logging.h"
#include "csd/smartssd.h"

namespace smartinf::csd {

Csd::Csd(std::string name, std::size_t functional_capacity)
    : name_(std::move(name)), ssd_(name_ + ".ssd", functional_capacity),
      fpga_memory_(static_cast<std::size_t>(smartssd::kFpgaDram))
{
}

void
Csd::installUpdater(std::unique_ptr<accel::UpdaterModule> updater)
{
    SI_REQUIRE(updater != nullptr, "null updater module");
    updater_ = std::move(updater);
    replaceModules();
}

void
Csd::installDecompressor(std::unique_ptr<accel::DecompressorModule> decomp)
{
    SI_REQUIRE(decomp != nullptr, "null decompressor module");
    decompressor_ = std::move(decomp);
    replaceModules();
}

void
Csd::replaceModules()
{
    // Re-synthesize: clear and place the active kernels so utilization
    // always reflects the installed device binary.
    resources_.clear();
    if (updater_)
        resources_.place(updater_->footprint());
    if (decompressor_)
        resources_.place(decompressor_->footprint());
}

} // namespace smartinf::csd
