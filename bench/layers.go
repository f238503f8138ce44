package main

import (
	"temperedlb/internal/obs"
)

// tracedOp is one op run under the folding tracer.
type tracedOp struct {
	res    *opResult
	folded folded
	tree   spanTree
}

// layerMetrics turns the traced ops of a run into the traced-run half of
// the per-layer table. Counts and busy times are per op (the mean over
// the traced ops, which on the protocol-determined workloads are equal);
// times are medians over rank 0's spans of all traced ops.
func (w *workloadDef) layerMetrics(ops []tracedOp, baseWall, tracedWall []float64) map[string]float64 {
	m := map[string]float64{}
	if len(ops) == 0 {
		return m
	}
	perOp := 1 / float64(len(ops))

	var runS, gossip, transfer, commit, colls, self, epochs, collDur, waves, iterS []float64
	var accounted, runTotal, payload float64
	for _, op := range ops {
		for _, r := range op.tree.runs {
			runS = append(runS, r.dur.Seconds())
			commit = append(commit, r.commit.Seconds())
			accounted += r.accounted().Seconds()
			runTotal += r.dur.Seconds()
			for _, it := range r.iters {
				gossip = append(gossip, it.gossip.Seconds())
				transfer = append(transfer, it.transfer.Seconds())
				colls = append(colls, it.collectives.Seconds())
				self = append(self, it.self.Seconds())
			}
		}
		epochs = append(epochs, seconds(op.tree.epochs)...)
		collDur = append(collDur, seconds(op.tree.collectives)...)
		waves = append(waves, op.tree.waves...)
		if w.Service {
			// The service keeps no History; rank 0's iteration spans stand in.
			for _, r := range op.tree.runs {
				for _, it := range r.iters {
					iterS = append(iterS, it.dur.Seconds())
				}
			}
		}
		for _, h := range op.res.dist.History {
			iterS = append(iterS, h.ElapsedSeconds)
		}

		f := op.folded
		m["lb.invocations"] += perOp * float64(len(op.tree.runs))
		m["core.gossip_msgs"] += perOp * float64(f.count[obs.EvInformSend])
		m["core.gossip_entries"] += perOp * f.value[obs.EvInformSend]
		m["core.transfers"] += perOp * float64(f.count[obs.EvTransferPropose])
		m["core.rejected"] += perOp * f.value[obs.EvTransferReject]
		m["amt.handler_calls"] += perOp * float64(f.count[obs.EvHandler])
		m["amt.handler_busy_s"] += perOp * f.dur[obs.EvHandler].Seconds()
		m["amt.epochs"] += perOp * float64(len(op.tree.epochs))
		m["amt.collectives"] += perOp * float64(len(op.tree.collectives))
		m["amt.collective_msgs"] += perOp * f.value[obs.EvCollective]
		m["amt.migrations"] += perOp * float64(f.count[obs.EvMigration])
		m["amt.migration_bytes"] += perOp * float64(f.bytes[obs.EvMigration])
		m["termination.token_rounds"] += perOp * float64(f.count[obs.EvTokenRound])
		m["obs.events_per_op"] += perOp * float64(f.total)
		m["obs.frames_per_op"] += perOp * float64(op.res.frames)

		c := op.res.counters
		m["amt.retries"] += perOp * float64(c.retries)
		m["amt.dup_drops"] += perOp * float64(c.dupDrops)
		m["comm.msgs_total"] += perOp * float64(c.kind["all"])
		m["comm.msgs_user"] += perOp * float64(c.kind["user"])
		m["comm.msgs_object"] += perOp * float64(c.kind["object"])
		payload += perOp * float64(c.kind["user"]+c.kind["object"]+c.kind["migrate"])
		m["comm.msgs_token"] += perOp * float64(c.kind["token"])
		m["comm.msgs_coll"] += perOp * float64(c.kind["coll_up"]+c.kind["coll_down"])
		m["comm.msgs_ack"] += perOp * float64(c.kind["ack"])
		m["comm.bytes_total"] += perOp * float64(c.bytes)
		m["wire.frames_out"] += perOp * float64(c.wire.FramesOut)
		m["wire.bytes_out"] += perOp * float64(c.wire.BytesOut)
		m["wire.redials"] += perOp * float64(c.wire.Redials)
		if q := float64(c.wire.QueueHighWater); q > m["wire.queue_highwater"] {
			m["wire.queue_highwater"] = q
		}

		if w.Service {
			s := op.res.svc
			m["core.final_imbalance"] += perOp * serviceFinalImbalance(s)
			m["serve.fires"] += perOp * float64(s.Fires)
			m["serve.skips"] += perOp * float64(s.Skips)
			m["serve.total_cost"] += perOp * s.TotalCost
			m["serve.forecast_mae"] += perOp * s.ForecastMAE
		} else {
			m["core.final_imbalance"] += perOp * op.res.dist.FinalImbalance
			know := 0.0
			for _, h := range op.res.dist.History {
				know += h.KnowledgeAvg
			}
			if n := len(op.res.dist.History); n > 0 {
				m["core.knowledge_avg"] += perOp * know / float64(n)
			}
		}
	}

	m["lb.run_s"] = median(runS)
	m["lb.gossip_epoch_s"] = median(gossip)
	m["lb.transfer_epoch_s"] = median(transfer)
	m["lb.commit_epoch_s"] = median(commit)
	m["lb.iter_collectives_s"] = median(colls)
	m["lb.iter_self_s"] = median(self)
	if runTotal > 0 {
		m["lb.accounted_share"] = accounted / runTotal
	}
	if len(iterS) > 0 {
		pct, v := tail(iterS)
		m["lb.iter_s_tail"], m["lb.iter_s_tail_pct"], m["lb.iter_s_tail_n"] = v, pct, float64(len(iterS))
	}
	m["amt.epoch_s_p50"] = median(epochs)
	m["amt.collective_s_p50"] = median(collDur)
	m["termination.waves_per_epoch"] = mean(waves)

	if msgs := m["core.gossip_msgs"]; msgs > 0 {
		m["core.entries_per_msg"] = m["core.gossip_entries"] / msgs
	}
	if tried := m["core.transfers"] + m["core.rejected"]; tried > 0 {
		m["core.accept_ratio"] = m["core.transfers"] / tried
	}
	if total := m["comm.msgs_total"]; total > 0 {
		m["comm.overhead_msg_ratio"] = (total - payload) / total
	}
	if frames := m["wire.frames_out"]; frames > 0 {
		m["wire.bytes_per_frame"] = m["wire.bytes_out"] / frames
	}

	if w.Service {
		// A phase runs from one PhaseBegin to the next: the work, the two
		// summary collectives, the trigger, and the balancer if it fired.
		var phaseS, skipS []float64
		for _, op := range ops {
			starts := op.tree.phaseStarts
			for p := 0; p+1 < len(starts) && p < len(op.res.svc.Rows); p++ {
				d := (starts[p+1] - starts[p]).Seconds()
				phaseS = append(phaseS, d)
				if !op.res.svc.Rows[p].Fired {
					skipS = append(skipS, d)
				}
			}
		}
		m["serve.phase_s_p50"] = median(phaseS)
		m["serve.skip_phase_s_p50"] = median(skipS)
		m["serve.lb_s_per_fire"] = median(runS)
		if len(phaseS) > 0 {
			pct, v := tail(phaseS)
			m["serve.phase_s_tail"], m["serve.phase_s_tail_pct"], m["serve.phase_s_tail_n"] = v, pct, float64(len(phaseS))
		}
	}

	if b := median(baseWall); b > 0 {
		m["obs.trace_overhead_ratio"] = median(tracedWall) / b
	}
	return m
}
