//! `paper-world`: the paper's SCAN-sized world and the figures that read it.
//!
//! Set-up builds `SimWorld::build(SimConfig::paper_scale())` once from the
//! world seed. One round runs Fig. 4 over `--hosts` hosts, then two Fig. 5
//! panels of `--triples` triples from one sampling seed: (a) faithful
//! reporting and (b) 20% colluders flipping probe results. Panel (a) names
//! the same droppers as panel (b) but no colluders, so both panels judge
//! the identical (A, B, C, t) samples and the §4.3 direction can be checked
//! judgment for judgment. An operation is one figure panel.

use std::time::Instant;

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium_bench::fig4;
use concilium_bench::fig5::{self, Fig5Params, Fig5Result};
use concilium_sim::{AdversarySets, SimConfig, SimWorld};
use concilium_tomography::Forest;
use concilium_topology::{generate, BfsTree};
use concilium_types::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{bfs, derive_seed, mem, passes, rounds, Args};

/// Host routers the benchmark's own BFS is run from, per run.
const BFS_CHECK_HOSTS: usize = 8;
/// Host routers `topology.bfs_ms` is timed from in a traced run.
const BFS_TIMED_HOSTS: usize = 64;

/// Picks `k` distinct hosts from the run seed.
fn sample_hosts(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        order.swap(i, j);
    }
    order.truncate(k.min(n));
    order
}

fn check_world(args: &Args, world: &SimWorld, report: &mut Report) {
    for h in sample_hosts(
        world.num_hosts(),
        BFS_CHECK_HOSTS,
        derive_seed(args.seed, 3),
    ) {
        let bad = bfs::distance_mismatches(world, h);
        report.check(
            &format!("host {h}: BFS distances agree with ip_distance"),
            bad.is_empty(),
            format!(
                "{} of {} hosts differ {:?}",
                bad.len(),
                world.num_hosts(),
                bad.first()
            ),
        );
    }
    let broken: Vec<(usize, usize)> = (0..world.num_hosts())
        .filter_map(|h| bfs::first_broken_peer_path(world, h).map(|p| (h, p)))
        .collect();
    let paths: usize = (0..world.num_hosts())
        .map(|h| world.peers_of(h).len())
        .sum();
    report.check(
        "every path_to_peer is a chain of adjacent links",
        broken.is_empty(),
        format!("{paths} paths, broken {:?}", broken.first()),
    );
}

/// Fig. 4's rows average over the hosts that have at least `trees` peers, so
/// hosts drop out of later rows. Where two consecutive rows average over the
/// same hosts (equal counts: the sets are nested), adding a tree can only
/// keep or raise coverage.
fn check_fig4(report: &mut Report, rows: &[fig4::Row]) -> bool {
    let monotone = rows
        .windows(2)
        .all(|w| w[0].hosts != w[1].hosts || w[1].coverage + 1e-12 >= w[0].coverage);
    let full = rows.last().is_some_and(|r| (r.coverage - 1.0).abs() < 1e-9);
    let vouched = rows.iter().all(|r| r.vouchers >= 1.0 - 1e-12);
    let ok = monotone && full && vouched;
    report.check(
        "fig4: coverage never falls, reaches 1.0, vouchers >= 1",
        ok,
        format!(
            "{} rows, own tree {:.4}, all trees {:.4}",
            rows.len(),
            rows.first().map_or(0.0, |r| r.coverage),
            rows.last().map_or(0.0, |r| r.coverage)
        ),
    );
    ok
}

fn check_panel(report: &mut Report, label: &str, r: &Fig5Result) -> bool {
    let ok = r.faulty.count() > 0 && r.p_faulty_guilty > r.p_good_guilty;
    report.check(
        &format!("fig5({label}): faulty-guilty > innocent-guilty"),
        ok,
        format!(
            "{:.4} over {} faulty judgments vs {:.5} over {} innocent",
            r.p_faulty_guilty,
            r.faulty.count(),
            r.p_good_guilty,
            r.nonfaulty.count()
        ),
    );
    ok
}

/// Collusion frames innocents and shields colluders: on the same judgments,
/// innocent-guilty rises and faulty-guilty cannot rise (every faulty B is a
/// colluder, whose evidence only ever flips toward "down").
fn check_collusion(report: &mut Report, a: &Fig5Result, b: &Fig5Result) -> bool {
    let paired = a.faulty.count() == b.faulty.count() && a.nonfaulty.count() == b.nonfaulty.count();
    let ok = paired && b.p_good_guilty > a.p_good_guilty && b.p_faulty_guilty <= a.p_faulty_guilty;
    report.check(
        "fig5: collusion raises innocent-guilty and does not raise faulty-guilty",
        ok,
        format!(
            "innocent {:.5} -> {:.5}, faulty {:.4} -> {:.4}, paired {paired}",
            a.p_good_guilty, b.p_good_guilty, a.p_faulty_guilty, b.p_faulty_guilty
        ),
    );
    ok
}

/// Judgments a Fig. 5 panel made.
fn judgments(r: &Fig5Result) -> u64 {
    r.faulty.count() + r.nonfaulty.count()
}

pub fn run(args: &Args, report: &mut Report, rec: &mut Recorder) {
    let world_seed = args.world_seed.unwrap_or(2007);
    let config = SimConfig::paper_scale();
    if args.trace {
        let mut rng = StdRng::seed_from_u64(world_seed);
        let topology = rec.span("topology.generate", "", None, || {
            generate(&config.topology, &mut rng)
        });
        drop(topology);
    }
    let rss_before = mem::rss_mb();
    let span = rec.begin("sim.world_build", "", None);
    let world = SimWorld::build(config, &mut StdRng::seed_from_u64(world_seed));
    let setup_s = rec.end(span);
    let build_rss_mb = mem::peak_rss_mb() - rss_before;
    println!(
        "paper world {world_seed}: {} routers, {} links, {} hosts, built in {setup_s:.3}s",
        world.topology().graph.num_routers(),
        world.topology().graph.num_links(),
        world.num_hosts()
    );
    check_world(args, &world, report);

    let params = Fig5Params {
        triples: args.triples,
        ..Fig5Params::default()
    };
    let mut adv_rng = StdRng::seed_from_u64(derive_seed(args.seed, 2));
    let colluders = AdversarySets::sample(world.num_hosts(), 0.2, 0.2, &mut adv_rng);
    let faithful = AdversarySets {
        droppers: colluders.droppers.clone(),
        ..AdversarySets::none()
    };

    let mut fig4_times = Vec::new();
    let mut fig5_secs = 0.0;
    let mut fig5_judgments = 0u64;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    rounds(args.seconds, |round| {
        let sample_seed = derive_seed(args.seed, 100 + round);
        let mut round_s = 0.0;
        for &traced_pass in passes(args.trace, round) {
            if traced_pass {
                let secs = traced_round(args, &world, &[&faithful, &colluders], sample_seed, rec);
                traced.push(secs);
                round_s += secs;
                continue;
            }
            let t = Instant::now();
            let rows = fig4::run(&world, args.hosts);
            fig4_times.push(t.elapsed().as_secs_f64());
            let t5 = Instant::now();
            let a = fig5::run_par(&world, &faithful, &params, sample_seed, 1);
            let b = fig5::run_par(&world, &colluders, &params, sample_seed, 1);
            fig5_secs += t5.elapsed().as_secs_f64();
            let secs = t.elapsed().as_secs_f64();
            untraced.push(secs);
            round_s += secs;
            fig5_judgments += judgments(&a) + judgments(&b);
            if round == 0 {
                fig4::print(&rows);
                fig5::print("a: faithful reporting", &a, &params);
                fig5::print("b: 20% colluders flip probe results", &b, &params);
            }
            let fig4_ok = check_fig4(report, &rows);
            let a_ok = check_panel(report, "a", &a);
            let b_ok = check_panel(report, "b", &b) & check_collusion(report, &a, &b);
            report.attempted += 3;
            report.failed += [fig4_ok, a_ok, b_ok].iter().filter(|ok| !**ok).count() as u64;
        }
        round_s
    });
    println!(
        "fig4 median {:.3}s; fig5 {fig5_judgments} judgments in {fig5_secs:.3}s",
        median(&fig4_times)
    );
    if args.reference {
        let none = fig5::run_par(
            &world,
            &AdversarySets::none(),
            &params,
            derive_seed(args.seed, 100),
            1,
        );
        fig5::print("a, no adversaries (the paper's panel)", &none, &params);
    }

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("work_per_s", fig5_judgments as f64 / fig5_secs);
        report.set("round_s", median(&untraced));
        return;
    }
    let rounds_n = traced.len() as f64;
    let graph = &world.topology().graph;
    for h in sample_hosts(
        world.num_hosts(),
        BFS_TIMED_HOSTS,
        derive_seed(args.seed, 4),
    ) {
        let router = bfs::host_router(&world, h);
        rec.span("topology.bfs", "", None, || BfsTree::compute(graph, router));
    }
    let generate_s = rec.secs_of("topology.generate")[0];
    let bfs_s = median(&rec.secs_of("topology.bfs"));
    let bfs_runs = world.build_tree_stats().misses as f64;
    report.set("topology.generate_s", generate_s);
    report.set("topology.bfs_ms", bfs_s * 1e3);
    report.set("topology.bfs_runs", bfs_runs);
    report.set("sim.world_build_s", setup_s);
    report.set("sim.world_build_rss_mb", build_rss_mb);
    report.set(
        "trace.setup_uncovered_s",
        setup_s - generate_s - bfs_runs * bfs_s,
    );
    report.set(
        "tomography.tree_clone_ms",
        rec.total_secs("tomography.tree_clone", "") * 1e3 / rounds_n,
    );
    report.set(
        "tomography.forest_ms",
        rec.total_secs("tomography.forest", "") * 1e3 / rounds_n,
    );
    report.set(
        "tomography.forest_query_ms",
        rec.total_secs("tomography.forest_query", "") * 1e3 / rounds_n,
    );
    let evidence = rec.tally_of("sim.probe_evidence");
    let blame = rec.tally_of("core.blame");
    report.set("sim.probe_evidence_us", evidence.mean_us());
    report.set("core.blame_us", blame.mean_us());
    report.set("bench.fig4_s", median(&fig4_times));
    report.set(
        "bench.fig5_judgments_per_s",
        fig5_judgments as f64 / fig5_secs,
    );
    let traced_s: f64 = traced.iter().sum();
    let covered: f64 = [
        "tomography.tree_clone",
        "tomography.forest",
        "tomography.forest_query",
    ]
    .iter()
    .map(|name| rec.total_secs(name, ""))
    .sum::<f64>()
        + (evidence.total_ns + blame.total_ns) as f64 / 1e9;
    report.set("trace.stage_uncovered_s", (traced_s - covered) / rounds_n);
    report.set(
        "trace.overhead_s",
        (traced_s - untraced.iter().sum::<f64>()) / rounds_n,
    );
}

/// One round again, with spans at the layer boundaries: Fig. 4's tree
/// clones, forest assembly and coverage queries, then Fig. 5's sampling
/// loop with every probe-evidence lookup and blame evaluation tallied.
/// Returns the round's duration.
fn traced_round(
    args: &Args,
    world: &SimWorld,
    panels: &[&AdversarySets],
    sample_seed: u64,
    rec: &mut Recorder,
) -> f64 {
    let t = Instant::now();
    let stage = rec.begin("bench.fig4", "", None);
    let mut forests = Vec::new();
    for h in 0..world.num_hosts().min(args.hosts) {
        let peers = rec.span("tomography.tree_clone", "", Some(stage), || {
            world
                .peers_of(h)
                .iter()
                .map(|&p| world.tree(p).clone())
                .collect::<Vec<_>>()
        });
        forests.push(rec.span("tomography.forest", "", Some(stage), || {
            Forest::new(world.tree(h), &peers)
        }));
    }
    rec.span("tomography.forest_query", "", Some(stage), || {
        let max_peers = forests.iter().map(|f| f.num_trees() - 1).max().unwrap_or(0);
        let mut sum = 0.0;
        for k in 0..=max_peers {
            for f in forests.iter().filter(|f| k < f.num_trees()) {
                sum += f.coverage_with(k) + f.mean_vouchers_with(k);
            }
        }
        sum
    });
    rec.end(stage);
    let params = Fig5Params {
        triples: args.triples,
        ..Fig5Params::default()
    };
    for adversaries in panels {
        let stage = rec.begin("bench.fig5", "", None);
        sample_judgments(world, adversaries, &params, sample_seed, rec);
        rec.end(stage);
    }
    t.elapsed().as_secs_f64()
}

/// Fig. 5's sampling loop (uniform A, B among A's peers, C among B's
/// peers; `times_per_triple` judgment times each), with the probe-evidence
/// lookups and blame evaluations tallied.
fn sample_judgments(
    world: &SimWorld,
    adversaries: &AdversarySets,
    params: &Fig5Params,
    seed: u64,
    rec: &mut Recorder,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = world.num_hosts();
    let t_lo = params.delta.as_micros();
    let t_hi = world.config().duration.as_micros().saturating_sub(t_lo);
    let (mut sampled, mut guard) = (0usize, 0usize);
    while sampled < params.triples && guard < params.triples * 20 {
        guard += 1;
        let a = rng.gen_range(0..n);
        let peers_a = world.peers_of(a);
        if peers_a.is_empty() {
            continue;
        }
        let b = peers_a[rng.gen_range(0..peers_a.len())];
        let peers_b = world.peers_of(b);
        if peers_b.is_empty() {
            continue;
        }
        let c = peers_b[rng.gen_range(0..peers_b.len())];
        if c == a || c == b {
            continue;
        }
        sampled += 1;
        let path = world
            .path_to_peer(b, world.node(c).id())
            .expect("C is in B's routing state");
        let b_is_colluder = adversaries.is_colluder(b);
        for _ in 0..params.times_per_triple {
            let t = SimTime::from_micros(rng.gen_range(t_lo..t_hi));
            // Fig. 5 classifies each judgment by the ground truth.
            std::hint::black_box(world.path_up_at(path, t));
            let mut per_link = Vec::with_capacity(path.links().len());
            for &link in path.links() {
                let seen = rec.tally("sim.probe_evidence", || {
                    world.probe_evidence(a, link, t, params.delta, Some(b))
                });
                let observations = seen
                    .into_iter()
                    .map(|(origin, up)| {
                        if adversaries.is_colluder(origin) {
                            !b_is_colluder
                        } else {
                            up
                        }
                    })
                    .collect();
                per_link.push(LinkEvidence { link, observations });
            }
            rec.tally("core.blame", || {
                blame_from_path_evidence(&per_link, params.accuracy)
            });
        }
    }
}
