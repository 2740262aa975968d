//! `serve-overload`: the diagnosis daemon at twice its saturation load.
//!
//! Set-up generates a seeded uniform `WorkloadSpec` of `--reports` reports
//! at `--load` (2.0 by default). One round boots a fresh `Daemon`, runs the
//! workload (`run` + `finish`), and then recovers a second daemon from the
//! journal bytes the first one left. An operation is one offered report; it
//! fails when it ends with neither a completion nor a typed shed.

use std::collections::BTreeMap;
use std::time::Instant;

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium_serve::{
    records_digest, Counters, Daemon, FailureReport, Journal, Record, ServeConfig, Shape,
    SharedStore, WorkloadSpec,
};

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use crate::{passes, rounds, Args};

/// Reports whose evidence `core.blame_us` is timed over.
const BLAME_SAMPLE: usize = 20_000;

/// What a scan of the live daemon's journal found.
struct JournalFacts {
    digest: String,
    valid_bytes: usize,
    /// Records and frame bytes by record kind.
    by_kind: BTreeMap<&'static str, (u64, u64)>,
    /// Shed records by reason code.
    shed_reasons: BTreeMap<u64, u64>,
}

/// Scans the journal and recounts it; also returns the `Journal::scan` time.
fn scan_journal(store: SharedStore) -> (JournalFacts, f64) {
    let t = Instant::now();
    let (records, valid_bytes) = Journal::over(store).scan();
    let scan_s = t.elapsed().as_secs_f64();
    let mut by_kind: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut shed_reasons = BTreeMap::new();
    for rec in &records {
        let entry = by_kind.entry(rec.label()).or_default();
        entry.0 += 1;
        entry.1 += 12 + 8 * rec.encode().len() as u64;
        if let Record::Shed { reason_code, .. } = rec {
            *shed_reasons.entry(*reason_code).or_default() += 1;
        }
    }
    let facts = JournalFacts {
        digest: records_digest(&records),
        valid_bytes,
        by_kind,
        shed_reasons,
    };
    (facts, scan_s)
}

fn kind_count(facts: &JournalFacts, label: &str) -> u64 {
    facts.by_kind.get(label).map_or(0, |&(n, _)| n)
}

/// Accounting checks on the live daemon, every round.
fn check_counters(report: &mut Report, round: u64, offered: u64, live: &Daemon) -> Counters {
    let c = live.counters();
    let typed: u64 = live
        .metrics()
        .keys()
        .filter(|k| k.starts_with("serve.shed."))
        .map(|k| live.metrics().counter(k))
        .sum();
    report.check(
        &format!("round {round}: offered = admitted + shed, completed = admitted"),
        c.offered == offered && c.admitted + c.shed == c.offered && c.completed == c.admitted,
        format!(
            "{} = {} + {}, {} completed",
            c.offered, c.admitted, c.shed, c.completed
        ),
    );
    report.check(
        &format!("round {round}: overload sheds, every shed typed"),
        c.shed > 0 && typed == c.shed,
        format!("{} shed, {typed} typed", c.shed),
    );
    report.attempted += offered;
    report.failed += offered.saturating_sub(c.completed + c.shed);
    c
}

/// The benchmark's own recount of the journal against the live counters.
fn check_journal(report: &mut Report, facts: &JournalFacts, c: &Counters, journal_len: usize) {
    let recount = [
        ("admitted", c.admitted),
        ("shed", c.shed),
        ("verdict", c.completed),
        ("batch-started", c.batches),
        ("accusation", c.accusations),
        ("flight-tail", c.shed),
    ];
    let mismatches: Vec<String> = recount
        .iter()
        .filter(|&&(kind, want)| kind_count(facts, kind) != want)
        .map(|&(kind, want)| format!("{kind}: {} records vs {want}", kind_count(facts, kind)))
        .collect();
    let reasons: u64 = facts.shed_reasons.values().sum();
    report.check(
        "journal recount by record kind matches the counters",
        mismatches.is_empty() && reasons == c.shed && facts.valid_bytes == journal_len,
        if mismatches.is_empty() {
            format!("{} valid bytes of {journal_len}", facts.valid_bytes)
        } else {
            mismatches.join(", ")
        },
    );
}

pub fn run(args: &Args, report: &mut Report, rec: &mut Recorder) {
    let cfg = ServeConfig::default();
    let spec = WorkloadSpec {
        reports: args.reports,
        shape: Shape::Uniform,
        load: args.load,
        ..WorkloadSpec::default()
    };
    let mut inputs = Vec::new();
    for _ in 0..args.setups {
        inputs = rec.span("serve.generate", "", None, || {
            spec.generate(&cfg, args.seed)
        });
    }
    let setup_s = median(&rec.secs_of("serve.generate"));
    let offered = inputs.len() as u64;
    println!(
        "serve workload: {offered} uniform reports at load {}, generated in {setup_s:.6}s",
        args.load
    );

    let mut ingest = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut journal_bytes = 0usize;
    let mut flight_tail_bytes = 0u64;
    let mut scan_s = 0.0;
    rounds(args.seconds, |round| {
        let mut round_s = 0.0;
        for &traced_pass in passes(args.trace, round) {
            let timed = |rec: &mut Recorder, name: &'static str, f: &mut dyn FnMut()| {
                if traced_pass {
                    rec.span(name, "", None, f)
                } else {
                    f()
                }
            };
            let t = Instant::now();
            let store = SharedStore::new();
            let (mut live, _) = Daemon::recover(cfg.clone(), store.clone());
            timed(rec, "serve.run", &mut || live.run(&inputs));
            timed(rec, "serve.finish", &mut || live.finish());
            let ingest_s = t.elapsed().as_secs_f64();

            let c = check_counters(report, round, offered, &live);
            let facts = (round == 0 && !traced_pass).then(|| {
                let facts;
                (facts, scan_s) = scan_journal(live.store());
                check_journal(report, &facts, &c, store.len());
                facts
            });
            let live_state = live.state().digest_hex();
            journal_bytes = store.len();

            let t = Instant::now();
            let mut bytes = Some(store.snapshot());
            drop((live, store));
            let mut recovered = None;
            timed(rec, "serve.recover", &mut || {
                let image = SharedStore::from_bytes(bytes.take().expect("one recovery"));
                recovered = Some(Daemon::recover(cfg.clone(), image));
            });
            let (recovered, stats) = recovered.expect("recovery ran");
            let stage_s = ingest_s + t.elapsed().as_secs_f64();
            round_s += stage_s;
            if traced_pass {
                traced.push(stage_s);
            } else {
                ingest.push(ingest_s);
                untraced.push(stage_s);
            }

            report.check(
                &format!("round {round}: recovered counters and state equal the live daemon's"),
                recovered.counters() == c
                    && recovered.state().digest_hex() == live_state
                    && stats.truncated_bytes == 0
                    && stats.resumed_input == offered,
                format!("{} records replayed", stats.records_replayed),
            );
            if let Some(facts) = facts {
                let digest = recovered.journal_digest();
                report.check(
                    "recovered journal digest equals the live journal's",
                    digest == facts.digest,
                    &digest[..16],
                );
                println!("journal {journal_bytes} bytes by record kind (records, bytes):");
                for (kind, (n, b)) in &facts.by_kind {
                    println!("  {kind:<14} {n:>8} {b:>10}");
                }
                flight_tail_bytes = facts.by_kind.get("flight-tail").map_or(0, |&(_, b)| b);
            }
        }
        round_s
    });
    let ingest_s: f64 = ingest.iter().sum();
    println!(
        "{} rounds: {} reports ingested in {ingest_s:.3}s, journal {journal_bytes} bytes",
        ingest.len(),
        offered * ingest.len() as u64
    );
    if args.reference {
        reference(&cfg, &inputs);
    }
    if !args.trace {
        report.set("setup_s", setup_s);
        report.set(
            "work_per_s",
            (offered * ingest.len() as u64) as f64 / ingest_s,
        );
        report.set("round_s", median(&untraced));
        return;
    }
    let rounds_n = traced.len() as f64;
    let evidence: Vec<Vec<LinkEvidence>> = inputs
        .iter()
        .take(BLAME_SAMPLE)
        .map(FailureReport::evidence)
        .collect();
    for _ in 0..5 {
        for e in &evidence {
            rec.tally("core.blame", || blame_from_path_evidence(e, cfg.accuracy));
        }
    }
    report.set("core.blame_us", rec.tally_of("core.blame").mean_us());
    report.set("serve.generate_s", setup_s);
    report.set("serve.run_s", rec.total_secs("serve.run", "") / rounds_n);
    report.set(
        "serve.finish_s",
        rec.total_secs("serve.finish", "") / rounds_n,
    );
    report.set(
        "serve.recover_s",
        rec.total_secs("serve.recover", "") / rounds_n,
    );
    report.set("serve.journal_scan_s", scan_s);
    report.set("serve.journal_mb", journal_bytes as f64 / 1e6);
    report.set("serve.flight_tail_mb", flight_tail_bytes as f64 / 1e6);
    report.set(
        "serve.bytes_per_report",
        journal_bytes as f64 / offered as f64,
    );
    let traced_s: f64 = traced.iter().sum();
    let covered: f64 = ["serve.run", "serve.finish", "serve.recover"]
        .iter()
        .map(|name| rec.total_secs(name, ""))
        .sum();
    report.set("trace.setup_uncovered_s", 0.0);
    report.set("trace.stage_uncovered_s", (traced_s - covered) / rounds_n);
    report.set(
        "trace.overhead_s",
        (traced_s - untraced.iter().sum::<f64>()) / rounds_n,
    );
}

/// Admission-wait percentiles of the same workload, in virtual µs.
fn reference(cfg: &ServeConfig, inputs: &[FailureReport]) {
    let cfg = ServeConfig {
        collect_admission_waits: true,
        ..cfg.clone()
    };
    let (mut daemon, _) = Daemon::recover(cfg, SharedStore::new());
    daemon.run(inputs);
    daemon.finish();
    let mut waits: Vec<f64> = daemon.admission_waits.iter().map(|&w| w as f64).collect();
    waits.sort_by(f64::total_cmp);
    println!(
        "reference: admission wait (virtual us) p50 {} p90 {} p99 {} max {} over {} admissions",
        quantile(&waits, 0.5),
        quantile(&waits, 0.9),
        quantile(&waits, 0.99),
        quantile(&waits, 1.0),
        waits.len()
    );
}
