//! ASL evaluation over the analyzer's extracted records.

use super::ast::{AslError, BinOp, Context, Expr, Locate, Property, PropertySet};
use crate::callpath::PathId;
use crate::extract::Extract;
use crate::patterns::{match_messages, MatchedPair};
use ats_runtime::VDur;
use ats_runtime::VTime;
use ats_trace::{LocationId, Trace};
use std::collections::HashMap;

/// One ASL-produced finding.
#[derive(Debug, Clone, PartialEq)]
pub struct AslFinding {
    /// Name of the triggered property declaration.
    pub property: String,
    /// Call path of the located side.
    pub path: PathId,
    /// Blamed location.
    pub loc: LocationId,
    /// The evaluated waiting time (clamped at zero).
    pub wait: VDur,
}

/// Evaluate a property set over a trace's extracted records.
pub fn evaluate(
    set: &PropertySet,
    ex: &Extract,
    trace: &Trace,
) -> Result<Vec<AslFinding>, AslError> {
    let pairs = match_messages(ex);
    let mut out = Vec::new();
    for prop in &set.properties {
        match &prop.context {
            Context::P2pPair => {
                for pair in &pairs {
                    let env = pair_env(pair);
                    if let Some(f) = trigger(prop, &env, locate_pair(prop.locate, pair))? {
                        out.push(f);
                    }
                }
            }
            Context::Collective(ops) => {
                for inst in &ex.colls {
                    if !ops.is_empty() && !ops.contains(&inst.op) {
                        continue;
                    }
                    let max_entry = inst.last_entry();
                    let root = inst.root_member(trace).map(|m| (m.loc, m.entered));
                    let max_nonroot = inst
                        .members
                        .iter()
                        .filter(|m| root.map(|(l, _)| l != m.loc).unwrap_or(true))
                        .map(|m| m.entered)
                        .max();
                    for m in &inst.members {
                        let mut env = HashMap::new();
                        env.insert("entered", secs(m.entered));
                        env.insert("exit", secs(m.exit));
                        env.insert("max_entry", secs(max_entry));
                        env.insert("bytes", m.bytes as f64);
                        if let Some((root_loc, root_entry)) = root {
                            env.insert("root_entry", secs(root_entry));
                            env.insert("is_root", if m.loc == root_loc { 1.0 } else { 0.0 });
                        }
                        if let Some(mn) = max_nonroot {
                            env.insert("max_nonroot_entry", secs(mn));
                        }
                        if let Some(f) = trigger(prop, &env, (m.path, m.loc))? {
                            out.push(f);
                        }
                    }
                }
            }
            Context::Critical => {
                for v in &ex.criticals {
                    let mut env = HashMap::new();
                    env.insert("arrive", secs(v.arrive));
                    env.insert("acquired", secs(v.acquired));
                    env.insert("released", secs(v.released));
                    if let Some(f) = trigger(prop, &env, (v.path, v.loc))? {
                        out.push(f);
                    }
                }
            }
            Context::Setup => {
                for s in &ex.setup {
                    let mut env = HashMap::new();
                    env.insert("time", s.time.as_secs());
                    if let Some(f) = trigger(prop, &env, (s.path, s.loc))? {
                        out.push(f);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Total ASL waiting time per property name — the aggregate compared
/// against the built-in detectors in the equivalence tests.
pub fn totals(findings: &[AslFinding]) -> HashMap<String, VDur> {
    let mut out: HashMap<String, VDur> = HashMap::new();
    for f in findings {
        *out.entry(f.property.clone()).or_default() += f.wait;
    }
    out
}

fn secs(t: VTime) -> f64 {
    t.as_secs()
}

fn pair_env(pair: &MatchedPair) -> HashMap<&'static str, f64> {
    let mut env = HashMap::new();
    env.insert("send_post", secs(pair.send.post));
    env.insert("send_enter", secs(pair.send.enter));
    env.insert("send_exit", secs(pair.send.exit));
    env.insert("recv_posted", secs(pair.recv.posted));
    env.insert("recv_enter", secs(pair.recv.enter));
    env.insert("recv_exit", secs(pair.recv.exit));
    env.insert("recv_completion", secs(pair.recv.completion));
    env.insert("bytes", pair.send.bytes as f64);
    env
}

fn locate_pair(locate: Locate, pair: &MatchedPair) -> (PathId, LocationId) {
    match locate {
        Locate::Sender => (pair.send.path, pair.send.loc),
        _ => (pair.recv.path, pair.recv.loc),
    }
}

fn trigger(
    prop: &Property,
    env: &HashMap<&'static str, f64>,
    (path, loc): (PathId, LocationId),
) -> Result<Option<AslFinding>, AslError> {
    let mut scope: HashMap<String, f64> = env.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
    for (name, e) in &prop.lets {
        let v = eval_expr(e, &scope, &prop.name)?;
        scope.insert(name.clone(), v);
    }
    let wait = eval_expr(&prop.wait, &scope, &prop.name)?;
    scope.insert("wait".to_owned(), wait);
    for cond in &prop.conditions {
        let v = eval_expr(cond, &scope, &prop.name)?;
        if v == 0.0 {
            return Ok(None);
        }
    }
    if wait <= 0.0 {
        return Ok(None);
    }
    Ok(Some(AslFinding {
        property: prop.name.clone(),
        path,
        loc,
        wait: VDur::from_secs(wait),
    }))
}

fn eval_expr(e: &Expr, scope: &HashMap<String, f64>, prop: &str) -> Result<f64, AslError> {
    Ok(match e {
        Expr::Num(n) => *n,
        Expr::Var(name) => *scope.get(name).ok_or_else(|| {
            AslError::new(format!("{prop}: unknown variable `{name}` in this context"))
        })?,
        Expr::Neg(inner) => -eval_expr(inner, scope, prop)?,
        Expr::Max(a, b) => eval_expr(a, scope, prop)?.max(eval_expr(b, scope, prop)?),
        Expr::Min(a, b) => eval_expr(a, scope, prop)?.min(eval_expr(b, scope, prop)?),
        Expr::Clamp(x, lo, hi) => {
            let x = eval_expr(x, scope, prop)?;
            let lo = eval_expr(lo, scope, prop)?;
            let hi = eval_expr(hi, scope, prop)?;
            x.max(lo).min(hi)
        }
        Expr::Bin(a, op, b) => {
            let a = eval_expr(a, scope, prop)?;
            let b = eval_expr(b, scope, prop)?;
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Gt => f64::from(a > b),
                BinOp::Lt => f64::from(a < b),
                BinOp::Ge => f64::from(a >= b),
                BinOp::Le => f64::from(a <= b),
                BinOp::Eq => f64::from(a == b),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::super::default_property_set;
    use super::*;
    use crate::analyzer::{analyze, AnalyzerConfig};
    use crate::extract::extract;
    use ats_core::composite::{two_communicator_composite, CompositeParams};
    use ats_core::{properties::mpi_coll, properties::mpi_p2p, with_omp, BaseComm, Distr};
    use ats_mpi::SimConfig;
    use ats_runtime::MachineModel;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    /// The headline equivalence: for a program exhibiting many properties,
    /// the declarative ASL set reproduces the built-in detectors' totals
    /// exactly (same waits, per property).
    #[test]
    fn asl_default_set_matches_builtin_detectors() {
        let params = CompositeParams {
            basework: 0.002,
            extrawork: 0.01,
            reps: 2,
            ..Default::default()
        };
        let trace = ats_mpi::run(cfg(8), move |p| {
            let c = p.comm_world();
            two_communicator_composite(p, &params, &c);
        });
        let ex = extract(&trace);
        let findings = evaluate(&default_property_set(), &ex, &trace).unwrap();
        let asl_totals = totals(&findings);
        let builtin = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
        for prop in [
            "LateSender",
            "LateReceiver",
            "WaitAtBarrier",
            "LateBroadcast",
            "EarlyReduce",
        ] {
            let built: f64 = builtin.cube.by_property(prop.parse().unwrap()).as_secs();
            let asl = asl_totals
                .get(prop)
                .copied()
                .unwrap_or(VDur::ZERO)
                .as_secs();
            assert!(
                (built - asl).abs() < 1e-9,
                "{prop}: builtin {built} vs ASL {asl}"
            );
        }
    }

    #[test]
    fn asl_omp_properties_match_builtins() {
        let df = Distr::linear(0.002, 0.02);
        let trace = ats_mpi::run(cfg(2), move |p| {
            with_omp(p, |m| {
                ats_core::properties::omp::imbalance_at_omp_barrier(m, 4, &df, 2);
                ats_core::properties::omp::omp_critical_contention(m, 4, 0.01, 0.0, 1);
            });
        });
        let ex = extract(&trace);
        let findings = evaluate(&default_property_set(), &ex, &trace).unwrap();
        let asl_totals = totals(&findings);
        let builtin = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
        for prop in [
            "OmpWaitAtBarrier",
            "OmpImbalanceInRegion",
            "OmpCriticalContention",
        ] {
            let built = builtin.cube.by_property(prop.parse().unwrap()).as_secs();
            let asl = asl_totals
                .get(prop)
                .copied()
                .unwrap_or(VDur::ZERO)
                .as_secs();
            assert!(
                (built - asl).abs() < 1e-9,
                "{prop}: builtin {built} vs ASL {asl}"
            );
        }
    }

    #[test]
    fn custom_property_definitions_work() {
        // A user-defined property: "slow transfer" — any pair whose
        // delivery takes longer than 1ms after both sides are ready.
        let set = super::super::parse(
            r"PROPERTY SlowTransfer OVER p2p_pair {
                LET ready = max(send_post, recv_posted);
                WAIT recv_completion - ready;
                CONDITION wait > 0.001;
                LOCATE receiver;
            }",
        )
        .unwrap();
        // With a 10ms latency model, every transfer is 'slow'.
        let mut config = cfg(2);
        config.model = MachineModel {
            latency: ats_runtime::VDur::from_millis(2),
            ..MachineModel::zero()
        };
        let trace = ats_mpi::run(config, |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.004, 3, &c);
        });
        let ex = extract(&trace);
        let findings = evaluate(&set, &ex, &trace).unwrap();
        assert_eq!(findings.len(), 3, "one per repetition");
        for f in &findings {
            assert_eq!(f.property, "SlowTransfer");
            assert!(f.wait >= VDur::from_millis(2));
        }
    }

    #[test]
    fn unknown_variable_is_reported_with_property_name() {
        let set = super::super::parse("PROPERTY Broken OVER setup { WAIT nonsense; LOCATE self; }")
            .unwrap();
        let trace = ats_mpi::run(
            SimConfig {
                nprocs: 2,
                model: MachineModel::zero(),
                ..Default::default()
            },
            |p| p.do_work(VDur::from_millis(1)),
        );
        let ex = extract(&trace);
        let err = evaluate(&set, &ex, &trace).unwrap_err();
        assert!(err.message.contains("Broken"));
        assert!(err.message.contains("nonsense"));
    }

    #[test]
    fn an_expression_at_the_nesting_bound_evaluates() {
        // LateSender's wait is two levels deep (a clamp under a
        // subtraction); 126 parentheses put it at the 128-level bound.
        let wait = format!(
            "{}clamp(send_post, recv_posted, recv_completion) - recv_posted{}",
            "(".repeat(126),
            ")".repeat(126)
        );
        let deep = super::super::parse(&format!(
            "PROPERTY Deep OVER p2p_pair {{ WAIT {wait}; CONDITION wait > 0; LOCATE receiver; }}"
        ))
        .unwrap();
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.02, 2, &c);
        });
        let ex = extract(&trace);
        let deep = totals(&evaluate(&deep, &ex, &trace).unwrap())["Deep"];
        let flat = totals(&evaluate(&default_property_set(), &ex, &trace).unwrap())["LateSender"];
        assert!(deep > VDur::ZERO);
        assert_eq!(deep, flat);
    }

    #[test]
    fn negative_programs_trigger_nothing() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            ats_core::properties::negative::balanced_mpi_barrier(p, 0.01, 2, &c);
            mpi_coll::imbalance_at_mpi_barrier(p, &Distr::same(0.005), 1, &c);
        });
        let ex = extract(&trace);
        let findings = evaluate(&default_property_set(), &ex, &trace).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }
}
