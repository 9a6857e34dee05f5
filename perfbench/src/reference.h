// Machine-speed reference for the wall-clock metrics.
//
// The benchmark shares its machine with other tenants, and the machine's
// speed drifts in regimes lasting tens of seconds to minutes (the same run
// takes anywhere from 1x to 1.5x its quiet time). A fixed synthetic
// workload that does not touch the program — a discrete-event loop over a
// heap of closures with a hash map of in-flight buffers, the simulator's
// own mix of work — is timed next to every simulated run. The wall-clock
// metrics are rescaled by (median reference time / kReferenceNominalS), so
// a regime that slows both cancels out, while a change to the program moves
// only the numerator.
#pragma once

namespace perfbench {

/// Reference time on a quiet run of this benchmark's development machine
/// (Xeon, KVM guest, 2.0 GHz); only sets the scale of the normalized values.
inline constexpr double kReferenceNominalS = 0.08;

/// Wall seconds of one pass of the fixed synthetic event loop.
[[nodiscard]] double reference_seconds();

}  // namespace perfbench
