//! Microbenchmarks of the page-at-a-time operator kernels and the tuple
//! codec — the per-packet work an instruction processor performs. These are
//! real CPU benchmarks (no simulation) guarding the hot path from
//! regressions.
//!
//! Each kernel group reports `Throughput::Bytes` over the input page data
//! so decoded-`Tuple` and zero-copy (`TupleRef`/`TupleBuf`) variants are
//! directly comparable in MiB/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use df_query::ops::{
    dedup_raw, dedup_tuples, join_pages, join_pages_raw, project_page, project_page_raw,
    restrict_page, restrict_page_raw, span_output_schema, span_page_raw, SpanStep,
};
use df_relalg::{
    CmpOp, DataType, JoinCondition, Page, Predicate, Projection, Schema, Tuple, Value,
};

fn schema() -> Schema {
    Schema::build()
        .attr("key", DataType::Int)
        .attr("fk", DataType::Int)
        .attr("val", DataType::Int)
        .attr("pad", DataType::Str(76))
        .finish()
        .expect("schema")
}

/// A full 10-tuple page of 100-byte tuples — §3.3's standard page.
fn page() -> Page {
    let s = schema();
    let mut p = Page::new(s, 1016).expect("page");
    for i in 0..10 {
        p.push(&Tuple::new(vec![
            Value::Int(i),
            Value::Int(i * 3 % 10),
            Value::Int(i * 97 % 1000),
            Value::str("pad"),
        ]))
        .expect("push");
    }
    p
}

/// Bytes of tuple data a kernel reads from one page.
fn page_data_bytes(p: &Page) -> u64 {
    (p.len() * p.schema().tuple_width()) as u64
}

fn operator_kernels(c: &mut Criterion) {
    let p = page();
    let s = schema();

    let pred = Predicate::cmp_const(&s, "val", CmpOp::Lt, Value::Int(500)).expect("pred");
    let mut g = c.benchmark_group("restrict_page_10_tuples");
    g.throughput(Throughput::Bytes(page_data_bytes(&p)));
    g.bench_function("decoded", |b| b.iter(|| restrict_page(&p, &pred)));
    g.bench_function("raw", |b| b.iter(|| restrict_page_raw(&p, &pred)));
    g.finish();

    let proj = Projection::new(&s, &["key", "val"]).expect("proj");
    let proj_schema = proj.output_schema(&s).expect("schema");
    let mut g = c.benchmark_group("project_page_10_tuples");
    g.throughput(Throughput::Bytes(page_data_bytes(&p)));
    g.bench_function("decoded", |b| b.iter(|| project_page(&p, &proj)));
    g.bench_function("raw", |b| {
        b.iter(|| project_page_raw(&p, &proj, &proj_schema))
    });
    g.finish();

    // A fused restrict→project→restrict span vs the materializing baseline
    // it replaces (each step repacks its survivors into an intermediate
    // page) — the per-unit work `TransferMode::Pipeline` fuses.
    let pred2 =
        Predicate::cmp_const(&proj_schema, "val", CmpOp::Ge, Value::Int(100)).expect("pred");
    let steps = vec![
        SpanStep::Restrict(pred.clone()),
        SpanStep::Project(proj.clone()),
        SpanStep::Restrict(pred2.clone()),
    ];
    let span_schema = span_output_schema(p.schema(), &steps).expect("schema");
    let mut g = c.benchmark_group("span_restrict_project_10_tuples");
    g.throughput(Throughput::Bytes(page_data_bytes(&p)));
    g.bench_function("stepwise", |b| {
        b.iter(|| {
            let mut mid = restrict_page_raw(&p, &pred);
            let cap = 16 + p.schema().tuple_width() * mid.len().max(1);
            let mut page = Page::new(p.schema().clone(), cap).expect("page");
            mid.drain_into(&mut page);
            let mut projected = project_page_raw(&page, &proj, &proj_schema);
            let cap = 16 + proj_schema.tuple_width() * projected.len().max(1);
            let mut page = Page::new(proj_schema.clone(), cap).expect("page");
            projected.drain_into(&mut page);
            restrict_page_raw(&page, &pred2)
        })
    });
    g.bench_function("fused", |b| {
        b.iter(|| span_page_raw(&p, &steps, &span_schema))
    });
    g.finish();

    let cond = JoinCondition::equi(&s, "fk", &s, "key").expect("cond");
    let joined_schema = s.concat(&s);
    let mut g = c.benchmark_group("join_pages_10x10");
    g.throughput(Throughput::Bytes(2 * page_data_bytes(&p)));
    g.bench_function("decoded", |b| b.iter(|| join_pages(&p, &p, &cond)));
    g.bench_function("raw", |b| {
        b.iter(|| join_pages_raw(&p, &p, &cond, &joined_schema))
    });
    g.finish();

    let pages = [&p, &p, &p, &p];
    let mut g = c.benchmark_group("dedup_4_pages");
    g.throughput(Throughput::Bytes(4 * page_data_bytes(&p)));
    g.bench_function("decoded", |b| {
        b.iter(|| dedup_tuples(pages.iter().flat_map(|pg| pg.tuples())))
    });
    g.bench_function("raw", |b| {
        b.iter(|| dedup_raw(pages.iter().flat_map(|pg| pg.tuple_refs()), &s))
    });
    g.finish();

    let tuple = p.get(0).expect("tuple");
    c.bench_function("tuple_encode_100B", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(100);
            tuple.encode(&s, &mut buf).expect("encode");
            buf
        })
    });

    let mut buf = Vec::new();
    tuple.encode(&s, &mut buf).expect("encode");
    c.bench_function("tuple_decode_100B", |b| {
        b.iter(|| Tuple::decode(&s, &buf).expect("decode"))
    });

    let mut g = c.benchmark_group("page_iterate_10_tuples");
    g.throughput(Throughput::Bytes(page_data_bytes(&p)));
    g.bench_function("decoded", |b| b.iter(|| p.tuples().count()));
    g.bench_function("refs", |b| b.iter(|| p.tuple_refs().count()));
    g.finish();
}

criterion_group!(benches, operator_kernels);
criterion_main!(benches);
