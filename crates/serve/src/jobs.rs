//! Job handlers: the worker-pool side of every heavy request.
//!
//! Scheduling jobs ride the degradation ladder of
//! [`ServeState::characterization`]: a failed characterization build
//! degrades first to a stale last-known-good entry (response flagged
//! `"degraded": "stale_characterization"`), then to an
//! independent-error-only model built from the live calibration with the
//! crosstalk-oblivious `par` scheduler forced
//! (`"degraded": "independent_fallback"`) — the service answers with a
//! valid, honestly-labelled schedule instead of an error.
//!
//! # Budgets
//!
//! Every handler receives the job's [`Budget`] (remaining deadline +
//! cancel token) and threads it into the budget-aware library layers:
//! `sleep` slices its wait into checked chunks, `schedule` and `run` go
//! through a budgeted [`Compiler`] whose anytime schedule/execute passes
//! feed the budget into the crosstalk search and the shot loop, and
//! `characterize` treats a truncated sweep as a failed build riding the
//! degradation ladder. Truncated jobs still answer `ok: true`, flagged
//! `"budget_exhausted": true` with provenance (`shots_completed`,
//! `leaves`, `slept_ms`) saying exactly how far they got.
//!
//! # Artifact sharing
//!
//! All compilers are built over the server's one content-addressed
//! artifact store ([`ServeState::cache`]'s underlying
//! [`xtalk_pass::ArtifactCache`]), keyed to the calibration epoch of the
//! job's device snapshot — so two jobs compiling the same source for the
//! same device share the lower/place/route prefix even across different
//! schedulers, and `advance_day` invalidates compile artifacts together
//! with characterizations.

use crate::json::{obj, Json};
use crate::metrics::Metrics;
use crate::protocol::{err_response, Request};
use crate::cache::RbSettings;
use crate::state::{CharacSource, ServeState, Snapshot};
use std::sync::Arc;
use xtalk_budget::Budget;
use xtalk_charac::Characterization;
use xtalk_core::{
    Compiler, ParSched, Scheduler, SchedulerContext, ScheduledArtifact, SerialSched,
    XtalkSched, XtalkSchedReport,
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
            let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
            pairs.extend(fields);
            Ok(Json::Obj(pairs))
        }
        Request::Characterize { device, policy, seed, seqs, shots } => {
            let snapshot = state.snapshot(device)?;
            let rb = RbSettings { seed: *seed, seqs: *seqs, shots: *shots };
            let (entry, source) =
                state.characterization_budgeted(device, &snapshot, policy, rb, budget)?;
            let high: Vec<Json> = entry
                .charac
                .high_pairs(3.0)
                .into_iter()
                .map(|(a, b)| Json::Arr(vec![a.to_string().into(), b.to_string().into()]))
                .collect();
            let mut fields = vec![
                ("device".to_string(), Json::Str(device.clone())),
                ("policy".to_string(), Json::Str(policy.clone())),
                ("epoch".to_string(), snapshot.epoch.into()),
                (
                    "cached".to_string(),
                    matches!(source, CharacSource::Fresh { cached: true }).into(),
                ),
                ("high_pairs".to_string(), Json::Arr(high)),
            ];
            if let CharacSource::StaleLkg { epoch, age } = source {
                fields.push(("degraded".to_string(), "stale_characterization".into()));
                fields.push(("charac_epoch".to_string(), epoch.into()));
                fields.push(("stale_epochs".to_string(), age.into()));
            }
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
            let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
            pairs.extend(fields);
            Ok(Json::Obj(pairs))
        }
        Request::Schedule { device, qasm, scheduler, omega, policy, seed } => {
            let (snapshot, ctx, meta) = context_for(state, device, policy, *seed, budget)?;
            let (prep, budgeted) = compilers(state, &snapshot, ctx, budget);
            let circuit = prepare_circuit(qasm, &prep)?;
            let (artifact, sched_name) =
                schedule_budget_aware(scheduler, *omega, &meta, &circuit, &budgeted)?;
            let sched = &artifact.sched;
            let mut fields = vec![
                ("device".to_string(), snapshot.device.name().into()),
                ("scheduler".to_string(), sched_name.into()),
                ("makespan_ns".to_string(), sched.makespan().into()),
                ("instructions".to_string(), sched.circuit().len().into()),
                ("cached".to_string(), meta.cached.into()),
                ("epoch".to_string(), snapshot.epoch.into()),
            ];
            let truncated = annotate_search(&mut fields, &artifact.report);
            annotate_budget(&mut fields, budget, truncated);
            meta.annotate(&mut fields);
            let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
            pairs.extend(fields);
            Ok(Json::Obj(pairs))
        }
        Request::Run { device, qasm, scheduler, omega, policy, shots, seed, threads } => {
            let (snapshot, ctx, meta) = context_for(state, device, policy, *seed, budget)?;
            let (prep, budgeted) = compilers(state, &snapshot, ctx, budget);
            let circuit = prepare_circuit(qasm, &prep)?;
            let (artifact, sched_name) =
                schedule_budget_aware(scheduler, *omega, &meta, &circuit, &budgeted)?;
            let sched = &artifact.sched;
            let outcome =
                budgeted.run(sched, *shots, *seed, *threads).map_err(|e| e.to_string())?;
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
                ("cached".to_string(), meta.cached.into()),
                ("counts".to_string(), counts_obj),
            ];
            let search_truncated = annotate_search(&mut fields, &artifact.report);
            annotate_budget(&mut fields, budget, search_truncated || !outcome.complete);
            meta.annotate(&mut fields);
            let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
            pairs.extend(fields);
            Ok(Json::Obj(pairs))
        }
        Request::SwapDemo { device, from, to, shots, seed } => {
            let (snapshot, ctx, _meta) = context_for(state, device, "truth", *seed, budget)?;
            let (prep, _) = compilers(state, &snapshot, ctx, budget);
            let schedulers: Vec<Box<dyn Scheduler>> = vec![
                Box::new(SerialSched::new()),
                Box::new(ParSched::new()),
                Box::new(XtalkSched::new(0.5)),
            ];
            // Budget checkpoint between schedulers: each leg is a full
            // tomography run, so a partial demo returns the legs it
            // finished instead of nothing. One shared compiler means the
            // tomography circuits' prefix artifacts are reused per leg.
            let mut rows = Vec::new();
            for s in &schedulers {
                if budget.exhausted().is_some() {
                    break;
                }
                let out = prep
                    .swap_bell_error(s.as_ref(), *from, *to, *shots, *seed, 1)
                    .map_err(|e| e.to_string())?;
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
            let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
            pairs.extend(fields);
            Ok(Json::Obj(pairs))
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

/// How the scheduler context for a job was obtained.
pub struct ContextMeta {
    /// Characterization cache hit.
    pub cached: bool,
    /// `None` on the happy path; the degradation label otherwise
    /// (`"stale_characterization"` or `"independent_fallback"`).
    pub degraded: Option<&'static str>,
    /// For stale fallbacks, the epoch the tables were built for.
    pub charac_epoch: Option<u64>,
    /// Rung 3: the context has no conditional terms, so the
    /// crosstalk-aware scheduler must be replaced by `par`.
    pub force_par: bool,
}

impl ContextMeta {
    /// Appends the degradation fields to a response under construction.
    fn annotate(&self, fields: &mut Vec<(String, Json)>) {
        if let Some(label) = self.degraded {
            fields.push(("degraded".to_string(), label.into()));
        }
        if let Some(epoch) = self.charac_epoch {
            fields.push(("charac_epoch".to_string(), epoch.into()));
        }
    }
}

/// Takes the device snapshot plus a scheduler context fed from the
/// characterization cache, riding the degradation ladder: a fresh entry
/// lends its shared context; a failed build yields a context over the
/// stale last-known-good tables when they exist, else an
/// independent-error-only context with the `par` scheduler forced.
fn context_for(
    state: &ServeState,
    device: &str,
    policy: &str,
    seed: u64,
    budget: &Budget,
) -> Result<(Snapshot, SchedulerContext, ContextMeta), String> {
    let snapshot = state.snapshot(device)?;
    if !matches!(policy, "truth" | "all" | "onehop" | "binpacked") {
        return Err(format!("unknown policy `{policy}`"));
    }
    let rb = RbSettings { seed, seqs: 3, shots: 96 };
    match state.characterization_budgeted(device, &snapshot, policy, rb, budget) {
        Ok((entry, source)) => {
            let (ctx, meta) = match source {
                CharacSource::Fresh { cached } => (
                    entry.ctx.clone(),
                    ContextMeta { cached, degraded: None, charac_epoch: None, force_par: false },
                ),
                // Stale tables under the current calibration.
                CharacSource::StaleLkg { epoch, .. } => (
                    SchedulerContext::new(&snapshot.device, &entry.charac),
                    ContextMeta {
                        cached: false,
                        degraded: Some("stale_characterization"),
                        charac_epoch: Some(epoch),
                        force_par: false,
                    },
                ),
            };
            Ok((snapshot, ctx, meta))
        }
        Err(_) => {
            // Rung 3: parameters are known-good (device and policy were
            // validated above), so this is a build failure with no usable
            // last-known-good. Degrade to the independent rates the daily
            // calibration always provides — no conditional terms — and
            // force the scheduler that never consults them.
            Metrics::inc(&state.metrics.degraded_independent);
            xtalk_obs::counter!("serve.charac.independent_fallback");
            let dev = &snapshot.device;
            let mut charac = Characterization::new();
            for &e in dev.topology().edges() {
                charac.set_independent(e, dev.calibration().cx_error(e));
            }
            let ctx = SchedulerContext::new(dev, &charac);
            let meta = ContextMeta {
                cached: false,
                degraded: Some("independent_fallback"),
                charac_epoch: None,
                force_par: true,
            };
            Ok((snapshot, ctx, meta))
        }
    }
}

/// The two compilers a job runs through, both over the server's shared
/// artifact store keyed to the snapshot's calibration epoch: an
/// *unbudgeted* one for preparation (lower/place/route always complete,
/// so even a cancelled job has a valid circuit to answer honestly about)
/// and a *budgeted* one whose anytime schedule/execute passes thread the
/// job's [`Budget`] into the crosstalk search and the shot loop.
fn compilers<'d>(
    state: &ServeState,
    snapshot: &'d Snapshot,
    ctx: SchedulerContext,
    budget: &Budget,
) -> (Compiler<'d>, Compiler<'d>) {
    let dev = &*snapshot.device;
    let epoch = EpochToken::new(dev.name(), snapshot.epoch);
    let artifacts = Arc::clone(state.cache.artifacts());
    let prep =
        Compiler::with_cache(dev, ctx.clone(), Arc::clone(&artifacts), epoch.clone());
    let budgeted = Compiler::with_cache(dev, ctx, artifacts, epoch).with_budget(budget.clone());
    (prep, budgeted)
}

/// Schedules with the scheduler a job actually runs with: the requested
/// one, unless the context degraded to rung 3 (no conditional terms), in
/// which case the crosstalk-oblivious `par` replaces it. The requested
/// name is still validated so a typo fails loudly rather than being
/// masked by the degradation. Scheduling goes through the budgeted
/// [`Compiler`], so the crosstalk scheduler's anytime search sees the
/// job's budget (and its report rides along in the artifact), while
/// complete schedules land in the shared artifact cache.
fn schedule_budget_aware(
    name: &str,
    omega: f64,
    meta: &ContextMeta,
    circuit: &Circuit,
    compiler: &Compiler<'_>,
) -> Result<(Arc<ScheduledArtifact>, String), String> {
    let requested = scheduler_by_name(name, omega)?;
    let actual: Box<dyn Scheduler> =
        if meta.force_par { Box::new(ParSched::new()) } else { requested };
    let artifact = compiler.schedule(circuit, actual.as_ref()).map_err(|e| e.to_string())?;
    Ok((artifact, actual.name().to_string()))
}

/// Names a scheduler the same way the CLI does.
pub fn scheduler_by_name(name: &str, omega: f64) -> Result<Box<dyn Scheduler>, String> {
    if !(0.0..=1.0).contains(&omega) {
        return Err(format!("omega must be in [0,1], got {omega}"));
    }
    Ok(match name {
        "xtalk" => Box::new(XtalkSched::new(omega)),
        "par" => Box::new(ParSched::new()),
        "serial" => Box::new(SerialSched::new()),
        other => return Err(format!("unknown scheduler `{other}`")),
    })
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
            scheduler: "par".into(),
            omega: 0.5,
            policy: "truth".into(),
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
            scheduler: "xtalk".into(),
            omega: 0.5,
            policy: "truth".into(),
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
            scheduler: "xtalk".into(),
            omega: 0.5,
            policy: "truth".into(),
            seed: 3,
        };
        let first = handle(&state, &req);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let (entry, _) = state.characterization("boeblingen", "truth", 3, 3, 96).unwrap();
        let (snapshot, ctx, meta) =
            context_for(&state, "boeblingen", "truth", 3, &Budget::unlimited()).unwrap();
        assert!(meta.cached);
        assert!(ctx.ptr_eq(&entry.ctx), "a cache hit must not build a context");
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
            scheduler: "par".into(),
            omega: 0.5,
            policy: "truth".into(),
            shots: 8,
            seed: 3,
            threads: 1,
        };
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("qasm"));
        assert!(scheduler_by_name("quantum-leap", 0.5).is_err());
        assert!(scheduler_by_name("xtalk", 1.5).is_err());
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
            scheduler: "xtalk".into(),
            omega: 0.5,
            policy: "truth".into(),
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
        // A bad scheduler name still fails loudly even while degraded.
        let bad = Request::Schedule {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: "quantum-leap".into(),
            omega: 0.5,
            policy: "truth".into(),
            seed: 11,
        };
        let resp = handle(&state, &bad);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn cancelled_run_returns_flagged_empty_partial() {
        let _gate = crate::testutil::fault_gate();
        let state = ServeState::new(ServeConfig::default());
        let req = Request::Run {
            device: "poughkeepsie".into(),
            qasm: BELL.into(),
            scheduler: "par".into(),
            omega: 0.5,
            policy: "truth".into(),
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
            scheduler: "xtalk".into(),
            omega: 0.5,
            policy: "truth".into(),
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
            scheduler: "xtalk".into(),
            omega: 0.5,
            policy: "truth".into(),
            seed: 3,
        };
        let resp = super::handle(&state, &req, &cancelled_budget());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{}", resp.dump());
        assert_eq!(resp.get("budget_exhausted").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("search_complete").and_then(Json::as_bool), Some(false));
        assert!(resp.get("makespan_ns").and_then(Json::as_u64).unwrap() > 0);
    }
}
