package core

import (
	"fmt"

	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/nn"
	"betty/internal/obs"
	"betty/internal/reg"
)

// MultiDevice extends the engine to several simulated accelerators using
// GSplit-style split-parallelism: instead of sharding whole micro-batches
// between devices (classic data parallelism over batches), every planned
// micro-batch is itself partitioned across the N devices — the natural
// multi-device extension of Betty's batch-level REG partitioning. Each
// device executes one shard of every micro-batch; input features it does
// not own arrive from their owning device over the fast interconnect (halo
// exchange) instead of being re-loaded from the host, and a deterministic
// binomial-tree all-reduce merges the gradient contributions before the
// single optimizer step that closes the epoch.
//
// Determinism contract: the numerical work — forward, backward, gradient
// fold, optimizer step — is a function of the plan alone and is executed in
// plan order on the host, never of the device count (the same invariant
// internal/parallel enforces for worker counts). The devices' ledgers and
// clocks replay that work cooperatively: per-shard memory charges (which
// surface per-device OOM), host loads for owned inputs, halo traffic for
// the rest, compute time from measured shard forwards, and the tree
// all-reduce schedule. Results are therefore bitwise identical to
// single-device training at any device count.
type MultiDevice struct {
	Engine  *Engine
	Devices []*device.Device

	// Interconnect models the device-to-device links used for halo
	// exchange and the gradient all-reduce. A zero Bandwidth selects
	// device.DefaultInterconnect (NVLink-class 50 GB/s).
	Interconnect device.Interconnect

	// ShardPartitioner splits each micro-batch's destination set across
	// the devices. Nil uses the engine's batch partitioner — Betty's REG
	// partitioning by default, so output nodes sharing many inputs land on
	// the same device and the halo stays small. reg.RangeBatch / reg.RandomBatch / reg.MetisBatch give the
	// baseline layouts the multidev bench sweeps.
	ShardPartitioner reg.BatchPartitioner

	// replicas holds each device's persistent model-state buffers, so one
	// replica per device survives across epochs (no re-allocation leak).
	replicas map[*device.Device][]*device.Buffer
}

// DeviceLoad reports one device's share of an epoch.
type DeviceLoad struct {
	// Batches counts the micro-batch shards charged to the device.
	Batches int
	// Seconds is the device's accumulated compute + transfer time.
	Seconds float64
	// ComputeSeconds and TransferSeconds split Seconds by clock; transfer
	// time includes both host loads and received halo bytes.
	ComputeSeconds, TransferSeconds float64
	// IdleSeconds is time spent waiting at the per-micro-batch barrier for
	// slower devices — the load-imbalance cost.
	IdleSeconds float64
	// OwnedBytes is the input-feature bytes the device loaded from the
	// host for the shard inputs it owns.
	OwnedBytes int64
	// HaloInBytes and HaloOutBytes are the boundary feature bytes the
	// device received from, and served to, peer devices.
	HaloInBytes, HaloOutBytes int64
	// PeakBytes is the device's peak memory during the epoch.
	PeakBytes int64
}

// MultiEpochStats extends EpochStats with parallel-execution metrics.
type MultiEpochStats struct {
	EpochStats
	// Devices is the device count the epoch ran on.
	Devices int
	// Makespan is the simulated wall time: the sum over micro-batches of
	// the slowest device's shard time (cooperative barrier per
	// micro-batch), plus the gradient all-reduce.
	Makespan float64
	// AllReduceSeconds is the critical-path time of the gradient tree
	// all-reduce; AllReduceBytes the total interconnect traffic it moved;
	// AllReduceRounds its serialized round count.
	AllReduceSeconds float64
	AllReduceBytes   int64
	AllReduceRounds  int
	// HaloBytes is the total boundary feature traffic between devices and
	// HaloSeconds the transfer time it cost. Betty's REG shard
	// partitioning exists to minimize exactly this.
	HaloBytes   int64
	HaloSeconds float64
	// PerDevice reports each device's share.
	PerDevice []DeviceLoad
}

// TrainEpoch runs one gradient-accumulating epoch across the devices and
// applies a single optimizer step. The per-device planner budget is the
// smallest device capacity; with more than one device the memory planner
// uses the split-aware peak (memory.SplitPeak), so K is chosen by what one
// device's *shard* must hold, not the whole micro-batch.
func (m *MultiDevice) TrainEpoch() (MultiEpochStats, error) {
	var st MultiEpochStats
	if len(m.Devices) == 0 {
		return st, fmt.Errorf("core: multi-device training needs at least one device")
	}
	e := m.Engine
	seeds := e.Runner.Data.TrainIdx

	savedCap, savedPeak := e.PlanCapacity, e.PlanPeak
	e.PlanCapacity = m.minCapacity()
	if len(m.Devices) > 1 {
		e.PlanPeak = memory.SplitPeak(len(m.Devices))
	}
	full, plan, err := e.PlanEpoch(seeds)
	e.PlanCapacity, e.PlanPeak = savedCap, savedPeak
	if err != nil {
		return st, err
	}
	e.fillPlanStats(&st.EpochStats, full, plan)
	// One stage serves both passes over the micro-batches: the shard
	// replay's measured forwards and the canonical execution.
	if err := e.stageBatch(plan, &st.EpochStats); err != nil {
		return st, err
	}
	defer e.Runner.Unstage()
	st.Devices = len(m.Devices)
	st.PerDevice = make([]DeviceLoad, len(m.Devices))

	sp := e.Obs.StartSpan(obs.PhaseMultiDev).
		SetInt("devices", int64(len(m.Devices))).
		SetInt("k", int64(plan.K))
	defer sp.End()

	// The simulation swaps per-device replicas in and out of the runner;
	// restore whatever device and resident set the engine had afterwards.
	runner := e.Runner
	savedDev := runner.Dev
	savedResident := runner.DetachResident()
	defer func() {
		runner.Dev = savedDev
		runner.AttachResident(savedResident)
	}()
	if m.replicas == nil {
		m.replicas = make(map[*device.Device][]*device.Buffer)
	}
	for _, dev := range m.Devices {
		dev.ResetClocks()
		dev.ResetPeak()
	}
	if err := m.ensureReplicas(); err != nil {
		return st, err
	}
	if err := m.simulateSplitParallel(plan, &st); err != nil {
		return st, err
	}

	// Canonical numerics, device-count independent: the same execution
	// single-device training performs, in plan order. Its gradient fold is
	// the result the simulated tree all-reduce delivers to every replica.
	runner.Dev = nil
	runner.AttachResident(nil)
	if err := e.executePlan(plan, &st.EpochStats); err != nil {
		return st, err
	}
	m.finishEpoch(&st)

	if d := len(m.Devices); d > 1 {
		paramBytes := int64(nn.ParamCount(runner.Model)) * 4
		st.AllReduceSeconds, st.AllReduceBytes, st.AllReduceRounds =
			m.interconnect().TreeAllReduce(d, paramBytes)
		st.Makespan += st.AllReduceSeconds
	}

	runner.Step()
	m.exportObs(&st)
	sp.SetInt("halo_bytes", st.HaloBytes).
		SetInt("allreduce_bytes", st.AllReduceBytes)
	return st, nil
}

// interconnect returns the configured interconnect or the default.
func (m *MultiDevice) interconnect() device.Interconnect {
	if m.Interconnect.Bandwidth <= 0 {
		return device.DefaultInterconnect()
	}
	return m.Interconnect
}

// minCapacity is the per-device planning budget.
func (m *MultiDevice) minCapacity() int64 {
	min := m.Devices[0].Capacity()
	for _, d := range m.Devices[1:] {
		if c := d.Capacity(); c < min {
			min = c
		}
	}
	return min
}

// shardPartitioner resolves the partitioner that splits each micro-batch's
// destinations across devices.
func (m *MultiDevice) shardPartitioner() reg.BatchPartitioner {
	if m.ShardPartitioner != nil {
		return m.ShardPartitioner
	}
	return m.Engine.Partitioner
}

// ensureReplicas allocates each device's persistent model-state buffers
// (parameters, gradients, optimizer states) if not already resident.
func (m *MultiDevice) ensureReplicas() error {
	runner := m.Engine.Runner
	for d, dev := range m.Devices {
		runner.Dev = dev
		runner.AttachResident(m.replicas[dev])
		if err := runner.EnsureResident(); err != nil {
			runner.Dev = nil
			return fmt.Errorf("core: device %d replica: %w", d, err)
		}
		m.replicas[dev] = runner.DetachResident()
	}
	runner.Dev = nil
	return nil
}

// shardCharge replays one shard on a device: ledger allocations for the
// transient tensors, host transfers for owned inputs plus labels and block
// structure, halo receives for peer-owned inputs, and compute time from a
// measured gradient-free forward. haloByOwner maps owning-device index to
// received feature bytes. It returns the activation estimate error or OOM
// unchanged so callers can surface which device and shard hit capacity.
func (m *MultiDevice) shardCharge(d int, shard []*graph.Block, ownedBytes int64, haloByOwner []int64, load *DeviceLoad, st *MultiEpochStats) error {
	runner := m.Engine.Runner
	dev := m.Devices[d]
	stats := graph.Stats(shard)
	featBytes := int64(runner.Data.FeatureDim()) * 4

	fc, err := runner.MeasureForward(shard)
	if err != nil {
		return err
	}
	var transient []*device.Buffer
	free := func() {
		for _, b := range transient {
			dev.Free(b)
		}
	}
	charge := func(bytes int64, label string) error {
		if bytes == 0 {
			return nil
		}
		buf, err := dev.Alloc(bytes, label)
		if err != nil {
			free()
			return err
		}
		transient = append(transient, buf)
		return nil
	}
	inputBytes := int64(stats.NumInput) * featBytes
	labelBytes := int64(stats.NumOutput) * 4
	blockBytes := int64(stats.TotalEdges) * 3 * 4
	if err := charge(inputBytes, "input-features"); err != nil {
		return err
	}
	if err := charge(labelBytes, "labels"); err != nil {
		return err
	}
	if err := charge(blockBytes, "blocks"); err != nil {
		return err
	}
	dev.Transfer(ownedBytes)
	dev.Transfer(labelBytes)
	dev.Transfer(blockBytes)
	load.OwnedBytes += ownedBytes
	ic := m.interconnect()
	for owner, bytes := range haloByOwner {
		if bytes == 0 || owner == d {
			continue
		}
		st.HaloSeconds += dev.Exchange(bytes, ic)
		st.HaloBytes += bytes
		load.HaloInBytes += bytes
		st.PerDevice[owner].HaloOutBytes += bytes
	}
	if err := charge(fc.ActivationBytes, "activations"); err != nil {
		return fmt.Errorf("forward activations: %w", err)
	}
	// forward + backward issue roughly three kernels per recorded op,
	// matching the single-device accounting in RunMicroBatch.
	dev.ComputeKernels(fc.Flops, 3*fc.Ops)
	load.Batches++
	free()
	return nil
}

// busy returns a device's accumulated busy seconds.
func busy(dev *device.Device) float64 {
	return dev.ComputeSeconds() + dev.TransferSeconds()
}

// simulateSplitParallel replays the epoch under split-parallelism: each
// micro-batch's destination set is partitioned into one shard per device,
// shards execute cooperatively (a barrier per micro-batch), and boundary
// inputs move between devices instead of being re-loaded from the host.
func (m *MultiDevice) simulateSplitParallel(plan *memory.Plan, st *MultiEpochStats) error {
	e := m.Engine
	featBytes := int64(e.Runner.Data.FeatureDim()) * 4
	nDev := len(m.Devices)
	prevBusy := make([]float64, nDev)
	for d, dev := range m.Devices {
		prevBusy[d] = busy(dev)
	}
	for mi, micro := range plan.Micro {
		last := micro[len(micro)-1]
		shards, err := m.splitMicro(micro, mi)
		if err != nil {
			return err
		}
		msp := e.Obs.StartSpan(obs.PhaseShard).
			SetInt("micro", int64(mi)).
			SetInt("shards", int64(len(shards))).
			SetInt("outputs", int64(last.NumDst))

		// Ownership: walking devices in index order, the first shard that
		// references an input node owns it and loads it from the host;
		// every later reference is a halo receive from that owner. The
		// walk order is deterministic, so ownership — and with it every
		// byte of simulated traffic — is too.
		owner := make(map[int32]int, micro[0].NumSrc)
		for g := range shards {
			for _, nid := range shards[g][0].SrcNID {
				if _, ok := owner[nid]; !ok {
					owner[nid] = g
				}
			}
		}
		haloBefore := st.HaloBytes
		for g := range shards {
			haloByOwner := make([]int64, len(shards))
			var ownedBytes int64
			for _, nid := range shards[g][0].SrcNID {
				if o := owner[nid]; o == g {
					ownedBytes += featBytes
				} else {
					haloByOwner[o] += featBytes
				}
			}
			if err := m.shardCharge(g, shards[g], ownedBytes, haloByOwner, &st.PerDevice[g], st); err != nil {
				msp.End()
				return fmt.Errorf("core: device %d shard of micro-batch %d: %w", g, mi, err)
			}
		}
		// Cooperative barrier: the micro-batch finishes when its slowest
		// shard does; faster devices idle for the difference.
		var microMax float64
		deltas := make([]float64, nDev)
		for d, dev := range m.Devices {
			deltas[d] = busy(dev) - prevBusy[d]
			if deltas[d] > microMax {
				microMax = deltas[d]
			}
		}
		for d, dev := range m.Devices {
			st.PerDevice[d].IdleSeconds += microMax - deltas[d]
			prevBusy[d] = busy(dev)
		}
		st.Makespan += microMax
		msp.SetInt("halo_bytes", st.HaloBytes-haloBefore)
		msp.End()
	}
	return nil
}

// splitMicro partitions one micro-batch's destinations into at most one
// shard per device and slices the shard block lists. A single shard (one
// device, or a micro-batch with one output) reuses the micro-batch blocks
// unsliced, so the one-device simulation charges exactly what single-device
// training charges. Partitioners that cannot produce the requested group
// count on a tiny REG (an empty part) fall back to range splitting.
func (m *MultiDevice) splitMicro(micro []*graph.Block, mi int) ([][]*graph.Block, error) {
	last := micro[len(micro)-1]
	n := len(m.Devices)
	if last.NumDst < n {
		n = last.NumDst
	}
	if n == 1 {
		return [][]*graph.Block{micro}, nil
	}
	groups, err := m.shardPartitioner().PartitionBatch(last, n)
	if err != nil {
		m.Engine.Obs.Add("multidev.shard_fallbacks", 1)
		groups, err = reg.RangeBatch{}.PartitionBatch(last, n)
		if err != nil {
			return nil, fmt.Errorf("core: sharding micro-batch %d: %w", mi, err)
		}
	}
	shards := make([][]*graph.Block, len(groups))
	for g, sel := range groups {
		shards[g], err = graph.SliceBatch(micro, sel)
		if err != nil {
			return nil, fmt.Errorf("core: slicing shard %d of micro-batch %d: %w", g, mi, err)
		}
	}
	return shards, nil
}

// finishEpoch folds the device clocks and peaks into the epoch stats.
func (m *MultiDevice) finishEpoch(st *MultiEpochStats) {
	st.TransferSeconds, st.ComputeSeconds = 0, 0
	for d, dev := range m.Devices {
		load := &st.PerDevice[d]
		load.ComputeSeconds = dev.ComputeSeconds()
		load.TransferSeconds = dev.TransferSeconds()
		load.Seconds = load.ComputeSeconds + load.TransferSeconds
		load.PeakBytes = dev.Peak()
		st.TransferSeconds += load.TransferSeconds
		st.ComputeSeconds += load.ComputeSeconds
		if load.PeakBytes > st.PeakBytes {
			st.PeakBytes = load.PeakBytes
		}
	}
}

// exportObs publishes the epoch's multi-device gauges and counters.
func (m *MultiDevice) exportObs(st *MultiEpochStats) {
	o := m.Engine.Obs
	o.Add("multidev.epochs", 1)
	o.Add("multidev.halo_bytes", st.HaloBytes)
	o.Add("multidev.allreduce_bytes", st.AllReduceBytes)
	o.Set("multidev.devices", int64(st.Devices))
	o.Set("multidev.makespan_us", int64(st.Makespan*1e6))
	o.Set("multidev.allreduce_us", int64(st.AllReduceSeconds*1e6))
	for d, load := range st.PerDevice {
		prefix := fmt.Sprintf("multidev.d%d.", d)
		o.Set(prefix+"compute_us", int64(load.ComputeSeconds*1e6))
		o.Set(prefix+"transfer_us", int64(load.TransferSeconds*1e6))
		o.Set(prefix+"idle_us", int64(load.IdleSeconds*1e6))
		o.Set(prefix+"halo_in_bytes", load.HaloInBytes)
		o.Set(prefix+"halo_out_bytes", load.HaloOutBytes)
		o.Set(prefix+"peak_bytes", load.PeakBytes)
	}
}
