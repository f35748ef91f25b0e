//! Benchmarks of the DQBF-specific pipeline stages (preprocessing,
//! Theorem-1 elimination, the full main loop) and the ablations DESIGN.md
//! calls out: MaxSAT-minimal vs eliminate-all strategy, unit/pure on/off,
//! gate detection on/off.

use hqs_base::Budget;
use hqs_bench::micro::{BenchmarkId, Criterion};
use hqs_bench::{criterion_group, criterion_main};
use hqs_core::elim::AigDqbf;
use hqs_core::preprocess::preprocess;
use hqs_core::{Dqbf, ElimStrategy, HqsConfig, Session};
use hqs_pec::families::generate;
use hqs_pec::Family;
use std::time::Duration;

fn instance(family: Family, size: u32, boxes: u32) -> Dqbf {
    generate(family, size, boxes, 0, true).dqbf
}

fn bench_preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqbf/preprocess");
    for (family, size) in [(Family::Adder, 6), (Family::Comp, 5), (Family::C432, 6)] {
        let dqbf = instance(family, size, 2);
        group.bench_with_input(
            BenchmarkId::new("pipeline", format!("{family}_{size}")),
            &dqbf,
            |b, dqbf| b.iter(|| preprocess(dqbf, true)),
        );
    }
    group.finish();
}

fn bench_universal_elimination(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqbf/theorem1");
    for size in [4u32, 6] {
        let dqbf = instance(Family::Adder, size, 2);
        group.bench_with_input(
            BenchmarkId::new("eliminate_universal", size),
            &dqbf,
            |b, dqbf| {
                b.iter(|| {
                    let mut state = AigDqbf::from_dqbf(dqbf);
                    let x = state.universals()[0];
                    state.eliminate_universal(x);
                    state.aig.num_nodes()
                });
            },
        );
    }
    group.finish();
}

fn bench_strategy_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqbf/ablation");
    group.sample_size(10);
    let dqbf = instance(Family::Bitcell, 6, 2);
    let configs: [(&str, HqsConfig); 4] = [
        ("paper_default", HqsConfig::default()),
        (
            "eliminate_all",
            HqsConfig {
                strategy: ElimStrategy::AllUniversals,
                ..HqsConfig::default()
            },
        ),
        (
            "no_unit_pure",
            HqsConfig {
                unit_pure: false,
                ..HqsConfig::default()
            },
        ),
        (
            "no_preprocess",
            HqsConfig {
                preprocess: false,
                gate_detection: false,
                ..HqsConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_with_input(BenchmarkId::new("hqs", name), &dqbf, |b, dqbf| {
            b.iter(|| {
                // Budget every solve so a pathological configuration cannot
                // hang the benchmark run; Limit outcomes still measure the
                // (bounded) work done.
                let bounded = HqsConfig {
                    budget: Budget::new()
                        .with_timeout(Duration::from_secs(5))
                        .with_node_limit(2_000_000),
                    ..config
                };
                Session::builder()
                    .config(bounded)
                    .build()
                    .expect("bench config is valid")
                    .solve(dqbf)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocess,
    bench_universal_elimination,
    bench_strategy_ablation
);
criterion_main!(benches);
