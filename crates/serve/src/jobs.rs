//! Job handlers: the worker-pool side of every heavy request.
//!
//! Every job that needs error tables takes them from the degradation
//! ladder in [`crate::cache`]: `characterize` answers from the fresh or
//! stale rung and fails past them, while `schedule`, `run` and
//! `swap_demo` fall through to the independent-error model with the
//! crosstalk-oblivious `par` scheduler forced — the service answers with
//! a valid, honestly-labelled schedule instead of an error. The rung's
//! [`Provenance`] writes the reply's `cached`, `degraded`,
//! `charac_epoch` and `stale_epochs` fields.
//!
//! # Budgets
//!
//! Every handler receives the job's [`Budget`] (remaining deadline +
//! cancel token) and threads it into the budget-aware library layers:
//! `sleep` slices its wait into checked chunks, `schedule` and `run` go
//! through one budgeted [`Compiler`] whose every pass runs (lower, place
//! and route ignore the budget, so even a cancelled job has a circuit to
//! answer about) while the schedule/execute passes feed it into the
//! crosstalk search and the shot loop, `swap_demo` runs every leg through
//! a budgeted compiler too and drops a leg whose tomography runs came
//! back short, and `characterize` treats a truncated sweep as a
//! failed build riding the degradation ladder. Truncated jobs still
//! answer `ok: true`, flagged `"budget_exhausted": true` with provenance
//! (`shots_completed`, `leaves`, `slept_ms`) saying exactly how far they
//! got.
//!
//! # Artifact sharing
//!
//! Every job's compiler is built over the server's one content-addressed
//! artifact store ([`ServeState::cache`]'s underlying
//! [`xtalk_pass::ArtifactCache`]), keyed to the calibration epoch of the
//! job's device snapshot — so two jobs compiling the same source for the
//! same device share the lower/place/route prefix even across different
//! schedulers, repeat `run`s of one schedule share its compiled sampling
//! program (the exact components' outcome tables included), and
//! `advance_day` invalidates compile artifacts together with
//! characterizations.

use crate::cache::{Provenance, RbSettings, Resolved};
use crate::json::{obj, Json};
use crate::protocol::{err_response, Request};
use crate::state::{ServeState, Snapshot};
use std::sync::Arc;
use xtalk_budget::Budget;
use xtalk_charac::PolicyName;
use xtalk_core::{
    Compiler, ParSched, Scheduler, SchedulerContext, SchedulerName, ScheduledArtifact,
    SerialSched, XtalkSched, XtalkSchedReport,
};
use xtalk_ir::{qasm, Circuit};
use xtalk_pass::EpochToken;

/// Executes one heavy request to completion under the job's [`Budget`].
/// Light requests (`ping`, `stats`, `shutdown`, `advance_day`, `cancel`)
/// are answered on the connection thread and never reach this function.
pub fn handle(state: &ServeState, req: &Request, budget: &Budget) -> Json {
    match run(state, req, budget) {
        Ok(response) => response,
        Err(message) => {
            let mut resp = err_response(message);
            // A job that failed *because* its budget died (e.g. a
            // truncated characterization with the ladder exhausted) is
            // labelled so the caller can tell it from a bad request.
            if let (Some(reason), Json::Obj(pairs)) = (budget.exhausted(), &mut resp) {
                pairs.push(("budget_exhausted".to_string(), true.into()));
                pairs.push(("budget_reason".to_string(), reason.as_str().into()));
            }
            resp
        }
    }
}

/// A success reply: `ok: true` ahead of the job's fields.
fn reply(mut fields: Vec<(String, Json)>) -> Json {
    fields.insert(0, ("ok".to_string(), Json::Bool(true)));
    Json::Obj(fields)
}

/// Appends the `budget_exhausted` flag (plus the reason) when `truncated`
/// says the job stopped early.
fn annotate_budget(fields: &mut Vec<(String, Json)>, budget: &Budget, truncated: bool) {
    if !truncated {
        return;
    }
    fields.push(("budget_exhausted".to_string(), true.into()));
    if let Some(reason) = budget.exhausted() {
        fields.push(("budget_reason".to_string(), reason.as_str().into()));
    }
}

fn run(state: &ServeState, req: &Request, budget: &Budget) -> Result<Json, String> {
    match req {
        Request::Sleep { ms } => {
            // Sliced so a deadline or cancel lands within ~10 ms instead
            // of after the full wait; reports how far it actually got.
            let mut slept = 0u64;
            while slept < *ms && budget.exhausted().is_none() {
                let chunk = (*ms - slept).min(10);
                std::thread::sleep(std::time::Duration::from_millis(chunk));
                slept += chunk;
            }
            let mut fields = vec![
                ("slept_ms".to_string(), slept.into()),
                ("requested_ms".to_string(), (*ms).into()),
            ];
            annotate_budget(&mut fields, budget, slept < *ms);
            Ok(reply(fields))
        }
        Request::Characterize { device, policy, seed, seqs, shots } => {
            let snapshot = state.snapshot(device)?;
            let rb = RbSettings { seed: *seed, seqs: *seqs, shots: *shots };
            // No rung 3: a characterization answers with measured tables
            // or not at all.
            let resolved = state.cache.resolve(&snapshot, *policy, rb, budget, &state.metrics)?;
            let entry = &resolved.entry;
            let high: Vec<Json> = entry
                .charac
                .high_pairs(3.0)
                .into_iter()
                .map(|(a, b)| Json::Arr(vec![a.to_string().into(), b.to_string().into()]))
                .collect();
            let mut fields = vec![
                ("device".to_string(), Json::Str(device.clone())),
                ("policy".to_string(), policy.as_str().into()),
                ("epoch".to_string(), snapshot.epoch.into()),
                ("high_pairs".to_string(), Json::Arr(high)),
            ];
            resolved.provenance.annotate(&mut fields);
            if let Some(report) = &entry.report {
                fields.push((
                    "report".to_string(),
                    obj([
                        ("experiments", report.num_experiments.into()),
                        ("pairs", report.num_pairs.into()),
                        ("executions", report.executions.into()),
                        ("machine_time_hours", Json::Num(report.machine_time_hours)),
                    ]),
                ));
            }
            Ok(reply(fields))
        }
        Request::Schedule { device, qasm, scheduler, policy, seed } => {
            let (snapshot, tables) = scheduling_tables(state, device, *policy, *seed, budget)?;
            let compiler = compiler(state, &snapshot, tables.ctx).with_budget(budget.clone());
            let circuit = prepare_circuit(qasm, &compiler)?;
            let (artifact, sched_name) =
                schedule_budget_aware(*scheduler, tables.provenance, &circuit, &compiler)?;
            let sched = &artifact.sched;
            let mut fields = vec![
                ("device".to_string(), snapshot.device.name().into()),
                ("scheduler".to_string(), sched_name.into()),
                ("makespan_ns".to_string(), sched.makespan().into()),
                ("instructions".to_string(), sched.circuit().len().into()),
                ("epoch".to_string(), snapshot.epoch.into()),
            ];
            let truncated = annotate_search(&mut fields, &artifact.report);
            annotate_budget(&mut fields, budget, truncated);
            tables.provenance.annotate(&mut fields);
            Ok(reply(fields))
        }
        Request::Run { device, qasm, scheduler, policy, shots, seed, threads } => {
            let (snapshot, tables) = scheduling_tables(state, device, *policy, *seed, budget)?;
            let compiler = compiler(state, &snapshot, tables.ctx).with_budget(budget.clone());
            let circuit = prepare_circuit(qasm, &compiler)?;
            let (artifact, sched_name) =
                schedule_budget_aware(*scheduler, tables.provenance, &circuit, &compiler)?;
            let sched = &artifact.sched;
            let outcome =
                compiler.run(sched, *shots, *seed, *threads).map_err(|e| e.to_string())?;
            let counts = &outcome.counts;
            let mut entries: Vec<(u64, u64)> = counts.iter().collect();
            entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let counts_obj = Json::Obj(
                entries
                    .into_iter()
                    .map(|(outcome, n)| {
                        (format!("{outcome:0width$b}", width = counts.num_bits()), n.into())
                    })
                    .collect(),
            );
            let mut fields = vec![
                ("device".to_string(), snapshot.device.name().into()),
                ("scheduler".to_string(), sched_name.into()),
                ("makespan_ns".to_string(), sched.makespan().into()),
                ("shots".to_string(), counts.shots().into()),
                ("shots_requested".to_string(), outcome.shots_requested.into()),
                ("shots_completed".to_string(), outcome.shots_completed.into()),
                ("counts".to_string(), counts_obj),
            ];
            let search_truncated = annotate_search(&mut fields, &artifact.report);
            annotate_budget(&mut fields, budget, search_truncated || !outcome.complete);
            tables.provenance.annotate(&mut fields);
            Ok(reply(fields))
        }
        Request::SwapDemo { device, from, to, shots, seed } => {
            let (snapshot, tables) =
                scheduling_tables(state, device, PolicyName::Truth, *seed, budget)?;
            let compiler = compiler(state, &snapshot, tables.ctx).with_budget(budget.clone());
            let schedulers: Vec<Box<dyn Scheduler>> = vec![
                Box::new(SerialSched::new()),
                Box::new(ParSched::new()),
                Box::new(XtalkSched::new(0.5)),
            ];
            // Every leg runs under the job's budget: its search and its
            // tomography runs stop at the budget, and a leg whose runs came
            // back short is dropped rather than reported from truncated
            // counts, so a partial demo returns the legs it finished. One
            // shared compiler means the tomography circuits' prefix
            // artifacts are reused per leg.
            let mut rows = Vec::new();
            for s in &schedulers {
                if budget.exhausted().is_some() {
                    break;
                }
                let out = compiler
                    .swap_bell_error(s.as_ref(), *from, *to, *shots, *seed, 1)
                    .map_err(|e| e.to_string())?;
                if !out.complete {
                    break;
                }
                rows.push(obj([
                    ("scheduler", s.name().into()),
                    ("error_rate", Json::Num(out.error_rate)),
                    ("duration_ns", out.duration_ns.into()),
                ]));
            }
            let truncated = rows.len() < schedulers.len();
            let mut fields = vec![
                ("device".to_string(), snapshot.device.name().into()),
                ("from".to_string(), (*from).into()),
                ("to".to_string(), (*to).into()),
                ("results".to_string(), Json::Arr(rows)),
            ];
            annotate_budget(&mut fields, budget, truncated);
            Ok(reply(fields))
        }
        light => Err(format!("`{}` is not a pooled job", light.kind())),
    }
}

/// Appends search provenance (`leaves`, `search_complete`, `fallback`)
/// when the crosstalk search ran; returns `true` if it was truncated.
fn annotate_search(fields: &mut Vec<(String, Json)>, report: &Option<XtalkSchedReport>) -> bool {
    let Some(report) = report else { return false };
    fields.push(("leaves".to_string(), report.leaves.into()));
    fields.push(("search_complete".to_string(), report.complete.into()));
    if report.fallback {
        fields.push(("fallback".to_string(), true.into()));
    }
    !report.complete
}

/// The device snapshot and the error tables a scheduling job runs with:
/// the whole degradation ladder, down to the independent-error model when
/// neither a build nor a last-known-good entry is available.
fn scheduling_tables(
    state: &ServeState,
    device: &str,
    policy: PolicyName,
    seed: u64,
    budget: &Budget,
) -> Result<(Snapshot, Resolved), String> {
    let snapshot = state.snapshot(device)?;
    let rb = RbSettings { seed, seqs: 3, shots: 96 };
    let tables = state
        .cache
        .resolve(&snapshot, policy, rb, budget, &state.metrics)
        .unwrap_or_else(|_| state.cache.independent(&snapshot, &state.metrics));
    Ok((snapshot, tables))
}

/// The one compiler a job runs through, over the server's shared
/// artifact store keyed to the snapshot's calibration epoch. It carries
/// no budget: `schedule` and `run` attach the job's with
/// [`Compiler::with_budget`], which only the crosstalk search and the
/// shot loop act on.
fn compiler<'d>(state: &ServeState, snapshot: &'d Snapshot, ctx: SchedulerContext) -> Compiler<'d> {
    let dev = &*snapshot.device;
    let epoch = EpochToken::new(dev.name(), snapshot.epoch);
    Compiler::with_cache(dev, ctx, Arc::clone(state.cache.artifacts()), epoch)
}

/// Schedules with the scheduler a job actually runs with: the requested
/// one, unless the tables fell to the independent-error model (no
/// conditional terms), in which case the crosstalk-oblivious `par`
/// replaces it. (The request parsed its scheduler name, so a typo was
/// rejected before any work ran, degraded or not.) Scheduling goes
/// through the budgeted [`Compiler`], so the crosstalk scheduler's
/// anytime search sees the job's budget (and its report rides along in
/// the artifact), while complete schedules land in the shared artifact
/// cache.
fn schedule_budget_aware(
    scheduler: SchedulerName,
    provenance: Provenance,
    circuit: &Circuit,
    compiler: &Compiler<'_>,
) -> Result<(Arc<ScheduledArtifact>, String), String> {
    let actual: Box<dyn Scheduler> = match provenance {
        Provenance::Independent => Box::new(ParSched::new()),
        _ => scheduler.build(),
    };
    let artifact = compiler.schedule(circuit, actual.as_ref()).map_err(|e| e.to_string())?;
    Ok((artifact, actual.name().to_string()))
}

/// Parses QASM and makes it hardware-compliant for the compiler's
/// device: the shared lower → place → route prefix of the pass pipeline
/// (cached in the compiler's artifact store, so repeat jobs and sibling
/// schedulers skip it). This is the same preparation the `xtalk run` CLI
/// applies, so a served job and a local run of the same source produce
/// the same scheduled circuit.
pub fn prepare_circuit(source: &str, compiler: &Compiler<'_>) -> Result<Circuit, String> {
    let circuit = qasm::parse(source).map_err(|e| format!("qasm: {e}"))?;
    let routed = compiler.prepare(&circuit).map_err(|e| e.to_string())?;
    Ok(routed.circuit.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ServeConfig, ServeState};

    const BELL: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";

    fn handle(state: &ServeState, req: &Request) -> Json {
        super::handle(state, req, &Budget::unlimited())
    }

    fn cancelled_budget() -> Budget {
        let b = Budget::unlimited();
        b.cancel_token().cancel();
        b
    }

    #[test]
    fn run_job_returns_counts() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Par,
            policy: PolicyName::Truth,
            shots: 128,
            seed: 3,
            threads: 1,
        };
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("shots").and_then(Json::as_u64), Some(128));
        let counts = resp.get("counts").unwrap();
        let total: u64 = match counts {
            Json::Obj(pairs) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => panic!("counts must be an object"),
        };
        assert_eq!(total, 128);
    }

    #[test]
    fn schedule_job_reports_makespan_and_cache() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Schedule {
            device: "boeblingen".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            seed: 3,
        };
        let first = handle(&state, &req);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        assert!(first.get("makespan_ns").and_then(Json::as_u64).unwrap() > 0);
        let second = handle(&state, &req);
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn cached_schedule_shares_the_entry_context_and_device() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Schedule {
            device: "boeblingen".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            seed: 3,
        };
        let first = handle(&state, &req);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let lookup = || {
            scheduling_tables(&state, "boeblingen", PolicyName::Truth, 3, &Budget::unlimited())
                .unwrap()
        };
        let (_, cached) = lookup();
        let (snapshot, again) = lookup();
        assert_eq!(again.provenance, Provenance::Fresh { cached: true });
        assert!(Arc::ptr_eq(&cached.entry, &again.entry));
        assert!(again.ctx.ptr_eq(&cached.entry.ctx), "a cache hit must not build a context");
        let fleet = state.snapshot("boeblingen").unwrap();
        assert!(Arc::ptr_eq(&snapshot.device, &fleet.device), "a job must not copy the device");
        let second = handle(&state, &req);
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(second.get("makespan_ns"), first.get("makespan_ns"));
    }

    #[test]
    fn bad_inputs_produce_error_responses() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: "this is not qasm".into(),
            scheduler: SchedulerName::Par,
            policy: PolicyName::Truth,
            shots: 8,
            seed: 3,
            threads: 1,
        };
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("qasm"));
    }

    #[test]
    fn charac_failure_degrades_to_independent_par_schedule() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        // No last-known-good exists, so a total characterization failure
        // must ride rung 3: independent-only context, `par` forced.
        xtalk_fault::install_spec("charac.run:err:1.0", 5).unwrap();
        let req = Request::Schedule {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            seed: 11,
        };
        let resp = handle(&state, &req);
        xtalk_fault::clear();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("degraded").and_then(Json::as_str), Some("independent_fallback"));
        assert_eq!(resp.get("scheduler").and_then(Json::as_str), Some("ParSched"));
        assert!(resp.get("makespan_ns").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            state.metrics.degraded_independent.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn cancelled_run_returns_flagged_empty_partial() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Par,
            policy: PolicyName::Truth,
            shots: 128,
            seed: 3,
            threads: 1,
        };
        let resp = super::handle(&state, &req, &cancelled_budget());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("budget_reason").and_then(Json::as_str), Some("cancelled"));
        assert_eq!(resp.get("shots_completed").and_then(Json::as_u64), Some(0));
        assert_eq!(resp.get("shots_requested").and_then(Json::as_u64), Some(128));
        assert_eq!(resp.get("shots").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn complete_run_reports_full_provenance_without_flag() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            shots: 128,
            seed: 3,
            threads: 1,
        };
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted"), None);
        assert_eq!(resp.get("shots_completed").and_then(Json::as_u64), Some(128));
        assert_eq!(resp.get("search_complete").and_then(Json::as_bool), Some(true));
        assert!(resp.get("leaves").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn cancelled_sleep_reports_progress() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let resp =
            super::handle(&state, &Request::Sleep { ms: 60_000 }, &cancelled_budget());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("slept_ms").and_then(Json::as_u64), Some(0));
        assert_eq!(resp.get("requested_ms").and_then(Json::as_u64), Some(60_000));
    }

    #[test]
    fn cancelled_xtalk_schedule_falls_back_and_is_flagged() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Schedule {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            seed: 3,
        };
        let resp = super::handle(&state, &req, &cancelled_budget());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("search_complete").and_then(Json::as_bool), Some(false));
        assert!(resp.get("makespan_ns").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn swap_demo_drops_legs_the_budget_cut_short() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::SwapDemo {
            device: "poughkeepsie".into(),
            from: 0,
            to: 13,
            shots: 64,
            seed: 3,
        };
        // One unit of work runs out at the first leg's first tomography
        // claim: its other runs come back empty, so no leg is reported.
        let resp = super::handle(&state, &req, &Budget::unlimited().with_quota(1));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("budget_reason").and_then(Json::as_str), Some("quota"));
        match resp.get("results") {
            Some(Json::Arr(rows)) => assert!(rows.is_empty(), "{}", resp.dump()),
            other => panic!("results must be an array: {other:?}"),
        }
        // An ample budget reports all three legs.
        let resp = handle(&state, &req);
        assert_eq!(resp.get("budget_exhausted"), None, "{}", resp.dump());
        match resp.get("results") {
            Some(Json::Arr(rows)) => assert_eq!(rows.len(), 3),
            other => panic!("results must be an array: {other:?}"),
        }
    }

    #[test]
    fn cancelled_run_leaves_the_prefix_for_the_next_run() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            shots: 128,
            seed: 3,
            threads: 1,
        };
        let partial = super::handle(&state, &req, &cancelled_budget());
        assert_eq!(partial.get("shots_completed").and_then(Json::as_u64), Some(0));
        let hits = state.cache.artifacts().hits();
        let full = handle(&state, &req);
        assert_eq!(full.get("shots_completed").and_then(Json::as_u64), Some(128));
        // Lower, place and route ran in full under the dead budget.
        assert!(state.cache.artifacts().hits() >= hits + 3, "{}", full.dump());
    }

    /// A stale `characterize`, `schedule` and `run` reply carry the same
    /// degradation fields.
    #[test]
    fn stale_replies_share_their_degradation_fields() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let characterize = Request::Characterize {
            device: "poughkeepsie".into(),
            policy: PolicyName::Truth,
            seed: 7,
            seqs: 3,
            shots: 96,
        };
        let fresh = handle(&state, &characterize);
        assert_eq!(fresh.get("degraded"), None, "{}", fresh.dump());
        state.advance_day();
        xtalk_fault::install_spec("charac.run:err:1.0", 1).unwrap();
        let schedule = Request::Schedule {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            seed: 3,
        };
        let run = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: SchedulerName::Xtalk { omega: 0.5 },
            policy: PolicyName::Truth,
            shots: 64,
            seed: 3,
            threads: 1,
        };
        let replies = [&characterize, &schedule, &run].map(|req| handle(&state, req));
        xtalk_fault::clear();
        for resp in &replies {
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
            let fields = ["cached", "degraded", "charac_epoch", "stale_epochs"]
                .map(|k| resp.get(k).map(Json::dump));
            let expected = ["false", "\"stale_characterization\"", "0", "1"]
                .map(|v| Some(v.to_string()));
            assert_eq!(fields, expected, "{}", resp.dump());
        }
    }
}
