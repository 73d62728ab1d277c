package memory

// SplitPeak returns a Planner peak functional for split-parallel
// multi-device execution (GSplit-style): every planned micro-batch is
// itself partitioned across the devices, so a single device holds only its
// shard of the batch data while the model state is fully replicated.
//
// Replicated per device: parameters, optimizer states, and the gradient
// accumulator (every device folds a full-width gradient). Divided across
// devices: input features, labels, block structure, per-layer hidden
// outputs, and the aggregator working set.
//
// Up to the ceiling rounding of those shares, SplitPeak(d)(b) equals
// b.ideal(d).Peak(): the redundancy- and imbalance-free floor lowerBoundK
// uses, not an estimate of a real shard. A shard holds every input its
// outputs reach, so inputs shared across shards count once per device,
// and nothing absorbs that duplication: the SafetyMargin is 0 unless a
// caller sets one, and no CLI does. A device's ledger peak can therefore
// exceed the planned estimate (by 9-42 % on ogbn-products at 2-8
// devices), and a K chosen under SplitPeak can OOM on a device.
func SplitPeak(devices int) func(Breakdown) int64 {
	return func(b Breakdown) int64 {
		if devices <= 1 {
			return b.Peak()
		}
		d := int64(devices)
		share := func(v int64) int64 { return (v + d - 1) / d }
		stable := b.Params + b.OptStates +
			share(b.InputFeatures) + share(b.Labels) + share(b.Blocks) + share(b.Hidden)
		transient := share(b.Aggregator)
		if b.Gradients > transient {
			transient = b.Gradients
		}
		return stable + transient
	}
}
