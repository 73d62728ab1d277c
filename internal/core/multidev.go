package core

import (
	"fmt"

	"betty/internal/device"
	"betty/internal/graph"
	"betty/internal/memory"
	"betty/internal/obs"
	"betty/internal/reg"
)

// MultiDevice extends the engine to several simulated accelerators using
// GSplit-style split-parallelism: instead of sharding whole micro-batches
// between devices (classic data parallelism over batches), every planned
// micro-batch is itself partitioned across the N devices — the natural
// multi-device extension of Betty's batch-level REG partitioning. Each
// device executes one shard of every micro-batch; input features it does
// not own arrive from their owning device (halo exchange) instead of being
// re-loaded from the host, and the host folds the gradient contributions
// before the single optimizer step that closes the epoch.
//
// Determinism contract: the numerical work — forward, backward, gradient
// fold, optimizer step — is a function of the plan alone and is executed in
// plan order on the host, never of the device count (the same invariant
// internal/parallel enforces for worker counts). The devices' ledgers
// replay that work shard by shard, which surfaces per-device peaks and
// OOM, and every input byte is counted as owned (loaded from the host) or
// halo (received from a peer). No time is simulated. Results are therefore
// bitwise identical to single-device training at any device count.
type MultiDevice struct {
	Engine  *Engine
	Devices []*device.Device

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
	// OwnedBytes is the input-feature bytes the device loaded from the
	// host for the shard inputs it owns.
	OwnedBytes int64
	// HaloInBytes and HaloOutBytes are the boundary feature bytes the
	// device received from, and served to, peer devices.
	HaloInBytes, HaloOutBytes int64
	// PeakBytes is the device's peak memory during the epoch.
	PeakBytes int64
}

// MultiEpochStats extends EpochStats with split-parallel byte counts. Its
// PeakBytes is the largest per-device peak; its H2DBytes is the canonical
// execution's, equal to a single-device epoch's over the same plan.
type MultiEpochStats struct {
	EpochStats
	// Devices is the device count the epoch ran on.
	Devices int
	// HaloBytes is the total boundary feature traffic between devices.
	// Betty's REG shard partitioning exists to minimize exactly this.
	HaloBytes int64
	// PerDevice reports each device's share.
	PerDevice []DeviceLoad
}

// TrainEpoch runs one gradient-accumulating epoch across the devices and
// applies a single optimizer step. The planner budgets the smallest device
// capacity against every shard it will run (memory.Split), so K is chosen
// by what one device's shard must hold, not the whole micro-batch.
func (m *MultiDevice) TrainEpoch() (MultiEpochStats, error) {
	var st MultiEpochStats
	if len(m.Devices) == 0 {
		return st, fmt.Errorf("core: multi-device training needs at least one device")
	}
	e := m.Engine
	split := &memory.Split{Devices: len(m.Devices), Partitioner: m.ShardPartitioner}
	full, plan, err := e.planEpoch(e.Runner.Data.TrainIdx, e.FixedK, m.minCapacity(), split)
	if err != nil {
		return st, err
	}
	e.fillPlanStats(&st.EpochStats, full, plan)
	st.Devices = len(m.Devices)
	st.PerDevice = make([]DeviceLoad, len(m.Devices))

	sp := e.Obs.StartSpan(obs.PhaseMultiDev).
		SetInt("devices", int64(len(m.Devices))).
		SetInt("k", int64(plan.K))
	defer sp.End()

	for _, dev := range m.Devices {
		dev.ResetPeak()
	}
	if err := m.ensureReplicas(); err != nil {
		return st, err
	}
	if err := m.simulateSplitParallel(plan, &st); err != nil {
		return st, err
	}

	// Canonical numerics, device-count independent and off every ledger:
	// the same execution single-device training performs, in plan order.
	// Its gradient fold is the merge every replica would hold.
	if err := e.stageBatch(plan, &st.EpochStats); err != nil {
		return st, err
	}
	runner := e.Runner
	own := runner.Dev
	runner.Dev = nil
	err = e.executePlan(plan, &st.EpochStats)
	runner.Dev = own
	runner.Unstage()
	if err != nil {
		return st, err
	}
	for d, dev := range m.Devices {
		st.PerDevice[d].PeakBytes = dev.Peak()
		st.PeakBytes = max(st.PeakBytes, dev.Peak())
	}
	runner.Step()
	e.publishEpoch(&st.EpochStats)
	m.exportObs(&st)
	sp.SetInt("halo_bytes", st.HaloBytes)
	return st, nil
}

// minCapacity is the per-device planning budget.
func (m *MultiDevice) minCapacity() int64 {
	c := m.Devices[0].Capacity()
	for _, d := range m.Devices[1:] {
		c = min(c, d.Capacity())
	}
	return c
}

// ensureReplicas allocates each device's persistent model-state buffers
// (parameters, gradients, optimizer states) if not already resident.
func (m *MultiDevice) ensureReplicas() error {
	if m.replicas == nil {
		m.replicas = make(map[*device.Device][]*device.Buffer)
	}
	r := m.Engine.Runner
	for d, dev := range m.Devices {
		if m.replicas[dev] != nil {
			continue
		}
		bufs, err := memory.AllocResident(dev, r.Model, r.Opt)
		if err != nil {
			return fmt.Errorf("core: device %d replica: %w", d, err)
		}
		m.replicas[dev] = bufs
	}
	return nil
}

// shardCharge replays one shard on a device's ledger: the batch charges of
// its estimate, which are what RunMicroBatch charges for it, all freed once
// the shard is done. It returns the OOM unchanged so callers can surface
// which device and shard hit capacity.
func (m *MultiDevice) shardCharge(dev *device.Device, shard []*graph.Block) error {
	est, err := memory.Estimate(shard, m.Engine.Spec)
	if err != nil {
		return err
	}
	charges := est.Charges()
	live, err := memory.Alloc(dev, nil, charges[3:]...)
	memory.Free(dev, live)
	return err
}

// simulateSplitParallel replays the epoch under split-parallelism: every
// planned shard is charged to its device's ledger, and each shard input is
// counted as owned or halo bytes.
func (m *MultiDevice) simulateSplitParallel(plan *memory.Plan, st *MultiEpochStats) error {
	e := m.Engine
	featBytes := int64(e.Runner.Data.FeatureDim()) * 4
	for mi, shards := range plan.Shards {
		micro := plan.Micro[mi]
		msp := e.Obs.StartSpan(obs.PhaseShard).
			SetInt("micro", int64(mi)).
			SetInt("shards", int64(len(shards))).
			SetInt("outputs", int64(micro[len(micro)-1].NumDst))

		// Ownership: walking devices in index order, the first shard that
		// references an input node owns it and loads it from the host;
		// every later reference is a halo receive from that owner. The
		// walk order is deterministic, so ownership — and with it every
		// counted byte — is too.
		owner := make(map[int32]int, micro[0].NumSrc)
		for g := range shards {
			for _, nid := range shards[g][0].SrcNID {
				if _, ok := owner[nid]; !ok {
					owner[nid] = g
				}
			}
		}
		haloBefore := st.HaloBytes
		for g, shard := range shards {
			load := &st.PerDevice[g]
			for _, nid := range shard[0].SrcNID {
				if o := owner[nid]; o == g {
					load.OwnedBytes += featBytes
				} else {
					load.HaloInBytes += featBytes
					st.PerDevice[o].HaloOutBytes += featBytes
					st.HaloBytes += featBytes
				}
			}
			if err := m.shardCharge(m.Devices[g], shard); err != nil {
				msp.End()
				return fmt.Errorf("core: device %d shard of micro-batch %d: %w", g, mi, err)
			}
			load.Batches++
		}
		msp.SetInt("halo_bytes", st.HaloBytes-haloBefore)
		msp.End()
	}
	return nil
}

// exportObs publishes the epoch's multi-device gauges and counters.
func (m *MultiDevice) exportObs(st *MultiEpochStats) {
	o := m.Engine.Obs
	o.Add("multidev.epochs", 1)
	o.Add("multidev.halo_bytes", st.HaloBytes)
	o.Set("multidev.devices", int64(st.Devices))
	for d, load := range st.PerDevice {
		prefix := fmt.Sprintf("multidev.d%d.", d)
		o.Set(prefix+"halo_in_bytes", load.HaloInBytes)
		o.Set(prefix+"halo_out_bytes", load.HaloOutBytes)
		o.Set(prefix+"peak_bytes", load.PeakBytes)
	}
}
