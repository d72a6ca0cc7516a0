/**
 * @file
 * Per-iteration traffic accounting, categorized the way the paper's Table I
 * is: optimizer-state reads/writes, gradient reads/writes, and parameter
 * upstream, separately for the shared system interconnect and the CSDs'
 * aggregate internal paths.
 */
#ifndef SMARTINF_TRAIN_TRAFFIC_LEDGER_H
#define SMARTINF_TRAIN_TRAFFIC_LEDGER_H

#include "common/units.h"

namespace smartinf::train {

/** Traffic totals for one training iteration. */
struct TrafficLedger {
    /** @name Through the shared system interconnect (Table I). @{ */
    Bytes shared_opt_read = 0.0;   ///< SSD -> host optimizer states
    Bytes shared_opt_write = 0.0;  ///< host -> SSD optimizer states
    Bytes shared_grad_read = 0.0;  ///< SSD -> host gradients
    Bytes shared_grad_write = 0.0; ///< host -> SSD gradients (BW offload)
    Bytes shared_param_up = 0.0;   ///< SSD -> host updated parameters (SU)
    /** @} */

    /** @name Inside the CSDs (aggregate over all internal switches). @{ */
    Bytes internal_read = 0.0;  ///< SSD -> FPGA
    Bytes internal_write = 0.0; ///< FPGA -> SSD
    /** @} */

    /** @name Between nodes (aggregate NIC traffic, dist/ collectives). @{ */
    Bytes internode_tx = 0.0; ///< node -> fabric (sum over all nodes)
    Bytes internode_rx = 0.0; ///< fabric -> node (sum over all nodes)
    /** @} */

    /** @name Serving KV-cache spill traffic (serve/ KV model; 0 when KV
     *  modeling is off or the working set stays HBM-resident). @{ */
    Bytes kv_spill_read = 0.0;  ///< host/CSD tiers -> GPU (decode reads)
    Bytes kv_spill_write = 0.0; ///< GPU -> host/CSD tiers (KV appends)
    /** @} */

    Bytes internodeTotal() const { return internode_tx + internode_rx; }

    Bytes
    sharedRead() const
    {
        return shared_opt_read + shared_grad_read + shared_param_up;
    }
    Bytes sharedWrite() const { return shared_opt_write + shared_grad_write; }
    Bytes sharedTotal() const { return sharedRead() + sharedWrite(); }
};

} // namespace smartinf::train

#endif // SMARTINF_TRAIN_TRAFFIC_LEDGER_H
