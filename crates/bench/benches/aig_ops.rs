//! Micro-benchmarks of the AIG primitives HQS's speed rests on:
//! construction, cofactor/compose, quantification and the Theorem-6
//! unit/pure traversal.

use hqs_aig::{Aig, AigEdge};
use hqs_base::Var;
use hqs_bench::micro::{BenchmarkId, Criterion};
use hqs_bench::{criterion_group, criterion_main};

/// Builds the AIG of an n-bit ripple-carry adder's final carry — a cone
/// with realistic reconvergence.
fn adder_carry(aig: &mut Aig, bits: u32) -> AigEdge {
    let mut carry = aig.input(Var::new(0));
    for i in 0..bits {
        let a = aig.input(Var::new(1 + 2 * i));
        let b = aig.input(Var::new(2 + 2 * i));
        let ab = aig.xor(a, b);
        let g1 = aig.and(a, b);
        let g2 = aig.and(ab, carry);
        carry = aig.or(g1, g2);
    }
    carry
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("aig/construction");
    for bits in [16u32, 64, 256] {
        group.bench_with_input(BenchmarkId::new("adder_carry", bits), &bits, |b, &bits| {
            b.iter(|| {
                let mut aig = Aig::new();
                adder_carry(&mut aig, bits)
            });
        });
    }
    group.finish();
}

fn bench_cofactor_and_compose(c: &mut Criterion) {
    let mut group = c.benchmark_group("aig/substitution");
    for bits in [16u32, 64] {
        let mut aig = Aig::new();
        let root = adder_carry(&mut aig, bits);
        let mid = Var::new(bits); // a middle input
        group.bench_with_input(BenchmarkId::new("cofactor", bits), &bits, |b, _| {
            b.iter(|| {
                let (r, mut aig) = aig_clone(&mut aig, root);
                aig.cofactor(r, mid, true)
            });
        });
        group.bench_with_input(BenchmarkId::new("compose", bits), &bits, |b, _| {
            b.iter(|| {
                let (r, mut aig) = aig_clone(&mut aig, root);
                let x = aig.input(Var::new(1));
                let y = aig.input(Var::new(2));
                let g = aig.xor(x, y);
                aig.compose(r, mid, g)
            });
        });
    }
    group.finish();
}

fn bench_quantification(c: &mut Criterion) {
    let mut group = c.benchmark_group("aig/quantification");
    for bits in [16u32, 64] {
        let mut aig = Aig::new();
        let root = adder_carry(&mut aig, bits);
        let mid = Var::new(bits);
        group.bench_with_input(BenchmarkId::new("exists", bits), &bits, |b, _| {
            b.iter(|| {
                let (r, mut aig) = aig_clone(&mut aig, root);
                aig.exists(r, mid)
            });
        });
        group.bench_with_input(BenchmarkId::new("forall", bits), &bits, |b, _| {
            b.iter(|| {
                let (r, mut aig) = aig_clone(&mut aig, root);
                aig.forall(r, mid)
            });
        });
    }
    group.finish();
}

fn bench_unit_pure(c: &mut Criterion) {
    // The paper reports the syntactic check at <4% of runtime; it must be
    // linear and fast.
    let mut group = c.benchmark_group("aig/unit_pure");
    for bits in [16u32, 64, 256] {
        let mut aig = Aig::new();
        let root = adder_carry(&mut aig, bits);
        group.bench_with_input(BenchmarkId::new("traversal", bits), &bits, |b, _| {
            b.iter(|| {
                let walk = aig.walk(root);
                aig.unit_pure(&walk)
            });
        });
    }
    group.finish();
}

fn bench_fraig(c: &mut Criterion) {
    let mut group = c.benchmark_group("aig/fraig");
    group.sample_size(20);
    for bits in [8u32, 16] {
        let mut aig = Aig::new();
        let root = adder_carry(&mut aig, bits);
        group.bench_with_input(BenchmarkId::new("sweep", bits), &bits, |b, _| {
            b.iter(|| {
                let (r, mut aig) = aig_clone(&mut aig, root);
                aig.fraig(r, 1, 100)
            });
        });
    }
    group.finish();
}

/// Clones the cone of `root` into a fresh manager (benchmarks must not
/// mutate the shared template). Returns `(new_root, new_manager)`.
fn aig_clone(aig: &mut Aig, root: AigEdge) -> (AigEdge, Aig) {
    let mut fresh = Aig::new();
    let mut map = std::collections::HashMap::new();
    for &idx in aig.walk(root).order() {
        let edge = AigEdge::new(idx, false);
        let new_edge = match aig.node(edge) {
            hqs_aig::AigNode::True => Aig::TRUE,
            hqs_aig::AigNode::Input(v) => fresh.input(v),
            hqs_aig::AigNode::And(f0, f1) => {
                let m0: AigEdge = map[&f0.node()];
                let m1: AigEdge = map[&f1.node()];
                fresh.and(
                    m0.xor_complement(f0.is_complemented()),
                    m1.xor_complement(f1.is_complemented()),
                )
            }
        };
        map.insert(idx, new_edge);
    }
    let new_root = map[&root.node()].xor_complement(root.is_complemented());
    (new_root, fresh)
}

criterion_group!(
    benches,
    bench_construction,
    bench_cofactor_and_compose,
    bench_quantification,
    bench_unit_pure,
    bench_fraig
);
criterion_main!(benches);
