//! Compiling query trees into machine instructions.
//!
//! Paper §2.3: *"the instruction in each memory cell corresponds to a node
//! in the query tree"*. Scans are not instructions — a scan child simply
//! makes its parent's operand a *source* operand whose page table is
//! complete from the start (the relation sits on mass storage). Every other
//! node becomes an [`Instruction`] with a [`Kernel`] — the actual operator
//! code an instruction processor executes on the pages in a work unit.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use df_query::{ops, validate, NodeId, Op, QueryTree};
use df_relalg::{
    Catalog, CmpOp, JoinCondition, Page, Predicate, Projection, Result, Schema, Tuple, TupleBuf,
    TupleRef,
};

use crate::params::{JoinAlgo, TransferMode};

/// Index of an instruction within a [`Program`].
pub type InstrId = usize;
/// Index of a query within a batch.
pub type QueryId = usize;

/// How work units are generated for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitGen {
    /// One unit per input page (streaming unary operators).
    PerPage,
    /// One unit per (outer page, inner page) pair (nested-loops join/cross).
    PerPair,
    /// A single unit over the complete input(s): the blocking operators the
    /// paper could not parallelize (duplicate-eliminating project, §5) plus
    /// the set operators that need the whole right side.
    WholeRelation,
}

/// The operator code executed per work unit.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// σ — emit tuples satisfying the predicate.
    Restrict(Predicate),
    /// π without duplicate elimination — streaming.
    Project(Projection),
    /// Copy input to output (bare scan roots, append staging).
    Identity,
    /// Emit tuples *matching* the predicate (the tuples a delete removes —
    /// the query's result; the catalog update happens after the run).
    DeleteFilter(Predicate),
    /// Join of one page pair, by the configured [`JoinAlgo`]: a nested-loops
    /// sweep, or (for equi-joins under [`JoinAlgo::Hash`]) a probe of the
    /// inner page's raw-byte key index. Non-equi θs always sweep.
    JoinPair(JoinCondition, JoinAlgo),
    /// Cross product of one page pair.
    CrossPair,
    /// Set union of two complete inputs.
    UnionFinal,
    /// Set difference of two complete inputs.
    DifferenceFinal,
    /// π with duplicate elimination over a complete input.
    ProjectDedupFinal(Projection),
    /// A fused restrict→project→… chain compiled under
    /// [`TransferMode::Pipeline`]: every step runs per tuple over the input
    /// page's raw bytes and only final survivors are written — the
    /// intermediate pages the paper's cells would materialize never exist.
    /// Cost: the sum of the step costs ([`Kernel::tuple_ops`]), but a
    /// single page transfer.
    Span(Vec<ops::SpanStep>),
}

impl Kernel {
    /// The unit-generation class.
    pub fn unit_gen(&self) -> UnitGen {
        match self {
            Kernel::Restrict(_)
            | Kernel::Project(_)
            | Kernel::Identity
            | Kernel::DeleteFilter(_)
            | Kernel::Span(_) => UnitGen::PerPage,
            Kernel::JoinPair(..) | Kernel::CrossPair => UnitGen::PerPair,
            Kernel::UnionFinal | Kernel::DifferenceFinal | Kernel::ProjectDedupFinal(_) => {
                UnitGen::WholeRelation
            }
        }
    }

    /// Execute one page-or-pair work unit on the zero-copy path: predicates
    /// and join keys are evaluated directly over the encoded tuple images
    /// and surviving images are memcpy'd into the returned batch — nothing
    /// is decoded or re-encoded. `out_schema` is the instruction's output
    /// schema (carried by the compiled [`Instruction`]).
    ///
    /// Emits exactly the tuples the decoded `df_query::ops` oracle kernels
    /// emit, in the same order, with byte-identical images.
    ///
    /// # Panics
    /// Panics if called on a [`UnitGen::WholeRelation`] kernel (use
    /// [`Kernel::run_final_raw`]) or with the wrong operand count.
    pub fn run_unit_raw(&self, pages: &[&Page], out_schema: &Schema) -> TupleBuf {
        match self {
            Kernel::Restrict(p) | Kernel::DeleteFilter(p) => ops::restrict_page_raw(pages[0], p),
            Kernel::Project(proj) => ops::project_page_raw(pages[0], proj, out_schema),
            Kernel::Identity => {
                let mut out = TupleBuf::new(out_schema.clone());
                for t in pages[0].tuple_refs() {
                    out.push_ref(&t);
                }
                out
            }
            Kernel::JoinPair(c, JoinAlgo::Nested) => {
                ops::join_pages_raw(pages[0], pages[1], c, out_schema)
            }
            // The hash kernel falls back to nested loops internally when
            // the condition is not an equal-width equi-join.
            Kernel::JoinPair(c, JoinAlgo::Hash) => {
                ops::hash_join_pages_raw(pages[0], pages[1], c, out_schema)
            }
            Kernel::CrossPair => ops::cross_pages_raw(pages[0], pages[1], out_schema),
            Kernel::Span(steps) => ops::span_page_raw(pages[0], steps, out_schema),
            k => panic!("run_unit_raw called on whole-relation kernel {k:?}"),
        }
    }

    /// Zero-copy whole-relation finalizer over complete inputs. Set
    /// semantics match `df-query::ops` exactly so machine results are
    /// oracle-comparable.
    pub fn run_final_raw(&self, inputs: &[Vec<&Page>], out_schema: &Schema) -> TupleBuf {
        self.run_final_bucket_raw(inputs, 0, 1, out_schema)
    }

    /// Execute one *bucket* of a whole-relation finalizer: only tuples whose
    /// hash lands in `bucket` (of `buckets`) are considered. Hash
    /// partitioning makes the blocking operators parallelizable — the
    /// parallel duplicate-elimination algorithm the paper's §5 leaves open:
    /// duplicates always hash to the same bucket, so per-bucket
    /// deduplication composes to exact global deduplication.
    ///
    /// The set-operator bodies are `df_query::ops`' raw kernels; this method
    /// only selects the bucket's tuples on their way in. Selection decodes
    /// each tuple (buckets > 1 only), because it must reproduce
    /// [`tuple_bucket`] exactly; membership and output stay raw. With
    /// `buckets == 1` this is the ordinary serial finalizer.
    pub fn run_final_bucket_raw(
        &self,
        inputs: &[Vec<&Page>],
        bucket: u64,
        buckets: u64,
        out_schema: &Schema,
    ) -> TupleBuf {
        assert!(
            buckets > 0 && bucket < buckets,
            "invalid bucket {bucket}/{buckets}"
        );
        let in_bucket = |t: &TupleRef<'_>| -> bool {
            buckets == 1 || tuple_bucket(&t.to_tuple(), buckets) == bucket
        };
        let operand = |i: usize| {
            inputs[i]
                .iter()
                .flat_map(|p| p.tuple_refs())
                .filter(in_bucket)
        };
        match self {
            Kernel::UnionFinal => ops::union_raw(operand(0), operand(1), out_schema),
            Kernel::DifferenceFinal => ops::difference_raw(operand(0), operand(1), out_schema),
            Kernel::ProjectDedupFinal(proj) => {
                // Two phases: attribute elimination page by page (the
                // parallelizable part), then duplicate elimination over
                // the projected tuples — partitioned on the *projected*
                // tuple, so duplicates collide exactly in one bucket.
                let projected: Vec<TupleBuf> = inputs[0]
                    .iter()
                    .map(|p| ops::project_page_raw(p, proj, out_schema))
                    .collect();
                let tuples = projected.iter().flat_map(TupleBuf::refs);
                ops::dedup_raw(tuples.filter(in_bucket), out_schema)
            }
            k => panic!("run_final_raw called on streaming kernel {k:?}"),
        }
    }

    /// Per-tuple operation count for the cost model: how many tuple-level
    /// steps the unit performs. A hash-path equi-join builds the inner
    /// index (m inserts) and probes once per outer tuple (n probes), so it
    /// charges n + m instead of the nested-loops n·m — this is what lets
    /// the simulated machines account the reduced IP service time.
    pub fn tuple_ops(&self, tuple_counts: &[usize]) -> usize {
        if let Kernel::JoinPair(c, JoinAlgo::Hash) = self {
            // Equi-joins probe; other θs sweep. (A mixed-width string key
            // also sweeps but is charged probe cost here — the cost model
            // keys on the condition, not the schemas it joins.)
            if c.op == CmpOp::Eq {
                return tuple_counts[0] + tuple_counts[1];
            }
        }
        // A fused span charges the *sum* of its step costs — each logical
        // operator still touches every input tuple — while transferring a
        // single page. The transfer saving, not a compute saving, is what
        // the pipeline mode buys.
        if let Kernel::Span(steps) = self {
            return tuple_counts[0] * steps.len().max(1);
        }
        match self.unit_gen() {
            UnitGen::PerPage => tuple_counts[0],
            UnitGen::PerPair => tuple_counts[0] * tuple_counts[1],
            UnitGen::WholeRelation => tuple_counts.iter().sum(),
        }
    }
}

/// Deterministic hash bucket of a tuple (used to partition blocking
/// operators across processors).
pub fn tuple_bucket(t: &Tuple, buckets: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish() % buckets
}

/// One operand of an instruction: either a base relation (pages on disk at
/// t = 0, page table complete) or the output of a child instruction (page
/// table filled as the child produces).
#[derive(Debug, Clone)]
pub struct OperandSpec {
    /// Tuple schema of the operand's pages.
    pub schema: Schema,
    /// `Some(name)` for a base-relation operand; `None` when fed by a child.
    pub source: Option<String>,
}

/// A compiled instruction (static plan; runtime state lives in the machine).
#[derive(Debug, Clone)]
pub struct Instruction {
    /// This instruction's id.
    pub id: InstrId,
    /// The query it belongs to.
    pub query: QueryId,
    /// The query-tree node it was compiled from.
    pub node: NodeId,
    /// Operator code.
    pub kernel: Kernel,
    /// Display name of the operator.
    pub op_name: &'static str,
    /// Operands (1 or 2).
    pub operands: Vec<OperandSpec>,
    /// Output tuple schema.
    pub output_schema: Schema,
    /// Where output pages go: `Some((parent, operand_index))`, or `None`
    /// for the query root (output pages are the query result).
    pub parent: Option<(InstrId, usize)>,
}

/// A post-run database update the query requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateSpec {
    /// Append the query result to `target`.
    Append {
        /// Target base relation.
        target: String,
    },
    /// Remove the query-result tuples from `target`.
    Delete {
        /// Target base relation.
        target: String,
    },
}

/// A compiled batch of queries.
#[derive(Debug, Clone)]
pub struct Program {
    /// All instructions, children before parents within each query.
    pub instructions: Vec<Instruction>,
    /// Root instruction of each query.
    pub roots: Vec<InstrId>,
    /// Per-query update to apply after the run (None for read-only).
    pub updates: Vec<Option<UpdateSpec>>,
    /// Names of every base relation the program reads.
    pub base_relations: Vec<String>,
}

/// Compile a batch of validated query trees into a [`Program`] with the
/// default (nested-loops) join algorithm and materializing transfers.
///
/// # Errors
/// Propagates validation errors (unknown relations, type mismatches…).
pub fn compile(db: &Catalog, queries: &[QueryTree]) -> Result<Program> {
    compile_with(db, queries, JoinAlgo::default(), TransferMode::default())
}

/// Compile with an explicit [`JoinAlgo`] for every join instruction and an
/// explicit [`TransferMode`] — the machines pass their params' knobs
/// through here. Under [`TransferMode::Pipeline`], maximal
/// restrict→project→… chains are fused into single [`Kernel::Span`]
/// instructions after the per-query walk.
///
/// # Errors
/// Propagates validation errors (unknown relations, type mismatches…).
pub fn compile_with(
    db: &Catalog,
    queries: &[QueryTree],
    join_algo: JoinAlgo,
    transfer: TransferMode,
) -> Result<Program> {
    let mut instructions: Vec<Instruction> = Vec::new();
    let mut roots = Vec::new();
    let mut updates = Vec::new();
    let mut base: Vec<String> = Vec::new();

    for (qid, tree) in queries.iter().enumerate() {
        let schemas = validate(db, tree)?;
        let first = instructions.len();
        // node -> instr id (None for scans).
        let mut map: HashMap<NodeId, InstrId> = HashMap::new();
        let mut root_instr: Option<InstrId> = None;
        let mut update: Option<UpdateSpec> = None;

        for nid in tree.topo_order() {
            let node = tree.node(nid);
            let operand_of = |child: NodeId| -> OperandSpec {
                let child_node = tree.node(child);
                match &child_node.op {
                    Op::Scan { relation } => OperandSpec {
                        schema: schemas.schema(child).clone(),
                        source: Some(relation.clone()),
                    },
                    _ => OperandSpec {
                        schema: schemas.schema(child).clone(),
                        source: None,
                    },
                }
            };

            let (kernel, operands): (Kernel, Vec<OperandSpec>) = match &node.op {
                Op::Scan { relation } => {
                    base.push(relation.clone());
                    if nid == tree.root() {
                        // Bare scan: an identity instruction so the machine
                        // has something to execute.
                        (
                            Kernel::Identity,
                            vec![OperandSpec {
                                schema: schemas.schema(nid).clone(),
                                source: Some(relation.clone()),
                            }],
                        )
                    } else {
                        continue; // scans feed their parent directly
                    }
                }
                Op::Restrict { predicate } => (
                    Kernel::Restrict(predicate.clone()),
                    vec![operand_of(node.children[0])],
                ),
                Op::Project { projection, dedup } => {
                    let k = if *dedup {
                        Kernel::ProjectDedupFinal(projection.clone())
                    } else {
                        Kernel::Project(projection.clone())
                    };
                    (k, vec![operand_of(node.children[0])])
                }
                Op::Join { condition } => (
                    Kernel::JoinPair(*condition, join_algo),
                    vec![operand_of(node.children[0]), operand_of(node.children[1])],
                ),
                Op::CrossProduct => (
                    Kernel::CrossPair,
                    vec![operand_of(node.children[0]), operand_of(node.children[1])],
                ),
                Op::Union => (
                    Kernel::UnionFinal,
                    vec![operand_of(node.children[0]), operand_of(node.children[1])],
                ),
                Op::Difference => (
                    Kernel::DifferenceFinal,
                    vec![operand_of(node.children[0]), operand_of(node.children[1])],
                ),
                Op::Append { target } => {
                    update = Some(UpdateSpec::Append {
                        target: target.clone(),
                    });
                    (Kernel::Identity, vec![operand_of(node.children[0])])
                }
                Op::Delete { target, predicate } => {
                    update = Some(UpdateSpec::Delete {
                        target: target.clone(),
                    });
                    base.push(target.clone());
                    (
                        Kernel::DeleteFilter(predicate.clone()),
                        vec![OperandSpec {
                            schema: db.require(target)?.schema().clone(),
                            source: Some(target.clone()),
                        }],
                    )
                }
            };

            // Record source scans feeding this instruction.
            for op_spec in &operands {
                if let Some(src) = &op_spec.source {
                    base.push(src.clone());
                }
            }

            let id = instructions.len();
            instructions.push(Instruction {
                id,
                query: qid,
                node: nid,
                kernel,
                op_name: node.op.name(),
                operands,
                output_schema: schemas.schema(nid).clone(),
                parent: None, // fixed up below
            });
            map.insert(nid, id);
            if nid == tree.root() {
                root_instr = Some(id);
            }
        }

        // Fix up parent pointers: each non-root instruction feeds the
        // operand slot its node occupies among its parent node's children.
        let parents = tree.parents();
        for instr in &mut instructions[first..] {
            let Some(pid) = parents[instr.node.0] else {
                continue; // the query root
            };
            let slot = tree
                .node(pid)
                .children
                .iter()
                .position(|&c| c == instr.node)
                .expect("parents() is consistent with children");
            instr.parent = Some((map[&pid], slot));
        }

        roots.push(root_instr.expect("every tree compiles a root instruction"));
        updates.push(update);
    }

    if transfer == TransferMode::Pipeline {
        fuse_spans(&mut instructions, &mut roots);
    }

    base.sort();
    base.dedup();
    Ok(Program {
        instructions,
        roots,
        updates,
        base_relations: base,
    })
}

/// Collapse every maximal restrict→project→… chain (length ≥ 2) into one
/// [`Kernel::Span`] instruction sitting at the chain bottom's position:
/// same operand, the top's output schema and parent, one step per absorbed
/// operator in chain order. Ids are then renumbered densely and parent
/// pointers and roots remapped.
///
/// Only `Restrict` and `Project` fuse — `DeleteFilter` feeds a database
/// update and `ProjectDedupFinal` blocks, so both stay materialized, as do
/// chains of length 1 (nothing to fuse).
fn fuse_spans(instructions: &mut Vec<Instruction>, roots: &mut [InstrId]) {
    let n = instructions.len();
    let fusible = |i: &Instruction| matches!(i.kernel, Kernel::Restrict(_) | Kernel::Project(_));
    // Which instructions are fed by a fusible child (chain continuation).
    let mut fed_by_fusible = vec![false; n];
    for i in 0..n {
        if fusible(&instructions[i]) {
            if let Some((p, _)) = instructions[i].parent {
                if fusible(&instructions[p]) && instructions[p].query == instructions[i].query {
                    fed_by_fusible[p] = true;
                }
            }
        }
    }

    let mut absorbed = vec![false; n];
    // Maps an absorbed chain top that was a query root to its chain bottom.
    let mut root_redirect: HashMap<InstrId, InstrId> = HashMap::new();
    for bottom in 0..n {
        // A chain bottom is fusible, not itself fed by a fusible child, and
        // feeds a fusible parent in the same query.
        if !fusible(&instructions[bottom]) || fed_by_fusible[bottom] {
            continue;
        }
        let mut chain = vec![bottom];
        loop {
            let cur = *chain.last().expect("chain is non-empty");
            match instructions[cur].parent {
                Some((p, _))
                    if fusible(&instructions[p])
                        && instructions[p].query == instructions[cur].query =>
                {
                    chain.push(p);
                }
                _ => break,
            }
        }
        if chain.len() < 2 {
            continue;
        }
        let steps: Vec<ops::SpanStep> = chain
            .iter()
            .map(|&i| match &instructions[i].kernel {
                Kernel::Restrict(p) => ops::SpanStep::Restrict(p.clone()),
                Kernel::Project(proj) => ops::SpanStep::Project(proj.clone()),
                k => unreachable!("non-fusible kernel {k:?} in a span chain"),
            })
            .collect();
        let top = *chain.last().expect("chain has at least two members");
        instructions[bottom].kernel = Kernel::Span(steps);
        instructions[bottom].op_name = "span";
        instructions[bottom].output_schema = instructions[top].output_schema.clone();
        instructions[bottom].parent = instructions[top].parent;
        if instructions[top].parent.is_none() {
            root_redirect.insert(top, bottom);
        }
        for &i in &chain[1..] {
            absorbed[i] = true;
        }
    }

    if root_redirect.is_empty() && absorbed.iter().all(|&a| !a) {
        return;
    }
    for r in roots.iter_mut() {
        if let Some(&b) = root_redirect.get(r) {
            *r = b;
        }
    }
    // Renumber densely, dropping absorbed instructions.
    let mut remap: Vec<Option<InstrId>> = vec![None; n];
    let mut next = 0;
    for (i, gone) in absorbed.iter().enumerate() {
        if !gone {
            remap[i] = Some(next);
            next += 1;
        }
    }
    let mut i = 0;
    instructions.retain(|_| {
        let keep = !absorbed[i];
        i += 1;
        keep
    });
    for instr in instructions.iter_mut() {
        instr.id = remap[instr.id].expect("kept instruction has a new id");
        instr.parent = instr
            .parent
            .map(|(p, slot)| (remap[p].expect("parent survives fusion"), slot));
    }
    for r in roots.iter_mut() {
        *r = remap[*r].expect("root survives fusion");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::{parse_query, TreeBuilder};
    use df_relalg::{CmpOp, DataType, Relation, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("k", DataType::Int)
            .attr("v", DataType::Int)
            .finish()
            .unwrap();
        for name in ["a", "b", "c"] {
            db.insert(
                Relation::from_tuples(
                    name,
                    s.clone(),
                    16 + 16 * 4,
                    (0..10).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn compiles_join_over_restricts() {
        let db = db();
        let q = parse_query(
            &db,
            "(join (restrict (scan a) (> k 2)) (restrict (scan b) (< k 8)) (= k k))",
        )
        .unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions.len(), 3); // 2 restricts + 1 join
        assert_eq!(prog.roots, vec![2]);
        let join = &prog.instructions[2];
        assert!(matches!(join.kernel, Kernel::JoinPair(_, JoinAlgo::Nested)));
        assert_eq!(join.node, NodeId(4)); // scans 0/2, restricts 1/3, join 4
        assert_eq!(join.operands.len(), 2);
        assert!(join.operands[0].source.is_none()); // fed by restrict
        let r0 = &prog.instructions[0];
        assert_eq!(r0.parent, Some((2, 0)));
        assert_eq!(r0.operands[0].source.as_deref(), Some("a"));
        assert_eq!(prog.base_relations, vec!["a", "b"]);
    }

    #[test]
    fn bare_scan_becomes_identity() {
        let db = db();
        let q = parse_query(&db, "(scan a)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions.len(), 1);
        assert!(matches!(prog.instructions[0].kernel, Kernel::Identity));
        assert_eq!(
            prog.instructions[0].operands[0].source.as_deref(),
            Some("a")
        );
    }

    #[test]
    fn updates_are_recorded() {
        let db = db();
        let q = parse_query(&db, "(append (scan a) b)").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(
            prog.updates[0],
            Some(UpdateSpec::Append { target: "b".into() })
        );
        let q = parse_query(&db, "(delete a (> k 5))").unwrap();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(
            prog.updates[0],
            Some(UpdateSpec::Delete { target: "a".into() })
        );
        assert!(matches!(
            prog.instructions[0].kernel,
            Kernel::DeleteFilter(_)
        ));
    }

    #[test]
    fn multi_query_batches_share_nothing() {
        let db = db();
        let q1 = parse_query(&db, "(restrict (scan a) (> k 1))").unwrap();
        let q2 = parse_query(&db, "(restrict (scan a) (< k 9))").unwrap();
        let prog = compile(&db, &[q1, q2]).unwrap();
        assert_eq!(prog.instructions.len(), 2);
        assert_eq!(prog.roots, vec![0, 1]);
        assert_eq!(prog.instructions[0].query, 0);
        assert_eq!(prog.instructions[1].query, 1);
        assert_eq!(prog.base_relations, vec!["a"]);
    }

    #[test]
    fn kernel_unit_classes() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b.scan("a").unwrap().project(&["v"], true).unwrap().finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(
            prog.instructions[0].kernel.unit_gen(),
            UnitGen::WholeRelation
        );
        let q = b
            .scan("a")
            .unwrap()
            .restrict_where("k", CmpOp::Gt, Value::Int(0))
            .unwrap()
            .finish();
        let prog = compile(&db, &[q]).unwrap();
        assert_eq!(prog.instructions[0].kernel.unit_gen(), UnitGen::PerPage);
    }

    #[test]
    fn kernel_run_unit_matches_ops() {
        let db = db();
        let a = db.get("a").unwrap();
        let page = &a.pages()[0];
        let s = a.schema();
        let pred = Predicate::cmp_const(s, "k", CmpOp::Lt, Value::Int(2)).unwrap();
        let out = Kernel::Restrict(pred.clone()).run_unit_raw(&[page], s);
        assert_eq!(out.to_tuples(), ops::restrict_page(page, &pred));
        let ident = Kernel::Identity.run_unit_raw(&[page], s);
        assert_eq!(ident.len(), page.len());
    }

    #[test]
    fn final_kernels_match_set_semantics() {
        let db = db();
        let a = db.get("a").unwrap();
        let pages: Vec<&Page> = a.pages().iter().map(|p| p.as_ref()).collect();
        let inputs = [pages.clone(), pages];
        // a ∪ a = a (set semantics)
        let u = Kernel::UnionFinal.run_final_raw(&inputs, a.schema());
        assert_eq!(u.len(), 10);
        // a − a = ∅
        let d = Kernel::DifferenceFinal.run_final_raw(&inputs, a.schema());
        assert!(d.is_empty());
    }

    /// The decoded `df_query::ops` oracle kernel each variant must
    /// reproduce, over page 0 of `l` (and page 1 of `r` for pair units) or
    /// the complete relations (finalizers). Exhaustive on purpose: a new
    /// variant has to name its oracle here.
    fn decoded(kernel: &Kernel, l: &Relation, r: &Relation) -> Vec<Tuple> {
        let (outer, inner) = (l.pages()[0].as_ref(), r.pages()[1].as_ref());
        match kernel {
            Kernel::Restrict(p) | Kernel::DeleteFilter(p) => ops::restrict_page(outer, p),
            Kernel::Project(proj) => ops::project_page(outer, proj),
            Kernel::Identity => outer.tuples().collect(),
            Kernel::JoinPair(c, _) => ops::join_pages(outer, inner, c),
            Kernel::CrossPair => ops::cross_pages(outer, inner),
            Kernel::Span(steps) => ops::span_page(outer, steps),
            Kernel::UnionFinal => ops::union_relations(l, r).unwrap(),
            Kernel::DifferenceFinal => ops::difference_relations(l, r).unwrap(),
            Kernel::ProjectDedupFinal(proj) => {
                ops::dedup_tuples(l.pages().iter().flat_map(|p| ops::project_page(p, proj)))
            }
        }
    }

    #[test]
    fn raw_unit_and_final_kernels_match_decoded() {
        let s = db().get("a").unwrap().schema().clone();
        // Overlapping inputs with duplicates, four tuples per page.
        let rel = |name: &str, n: i64, m: i64| {
            Relation::from_tuples(
                name,
                s.clone(),
                16 + 16 * 4,
                (0..n).map(|i| Tuple::new(vec![Value::Int(i % m), Value::Int(i % 3)])),
            )
            .unwrap()
        };
        let (l, r) = (rel("l", 14, 5), rel("r", 11, 4));
        let pred = Predicate::cmp_const(&s, "k", CmpOp::Ge, Value::Int(2)).unwrap();
        let swap = Projection::new(&s, &["v", "k"]).unwrap();
        let only_v = Projection::new(&s, &["v"]).unwrap();
        let steps = vec![
            ops::SpanStep::Restrict(pred.clone()),
            ops::SpanStep::Project(only_v.clone()),
        ];
        let c = JoinCondition::equi(&s, "v", &s, "v").unwrap();
        let kernels = [
            Kernel::Restrict(pred.clone()),
            Kernel::DeleteFilter(pred),
            Kernel::Project(swap.clone()),
            Kernel::Identity,
            Kernel::JoinPair(c, JoinAlgo::Nested),
            Kernel::JoinPair(c, JoinAlgo::Hash),
            Kernel::CrossPair,
            Kernel::Span(steps.clone()),
            Kernel::UnionFinal,
            Kernel::DifferenceFinal,
            Kernel::ProjectDedupFinal(only_v.clone()),
        ];

        let lp: Vec<&Page> = l.pages().iter().map(|p| p.as_ref()).collect();
        let rp: Vec<&Page> = r.pages().iter().map(|p| p.as_ref()).collect();
        for kernel in &kernels {
            let out_schema = match kernel {
                Kernel::Project(p) | Kernel::ProjectDedupFinal(p) => p.output_schema(&s).unwrap(),
                Kernel::Span(steps) => ops::span_output_schema(&s, steps).unwrap(),
                Kernel::JoinPair(..) | Kernel::CrossPair => s.concat(&s),
                _ => s.clone(),
            };
            let expect = decoded(kernel, &l, &r);
            match kernel.unit_gen() {
                UnitGen::PerPage => assert_eq!(
                    kernel.run_unit_raw(&[lp[0]], &out_schema).to_tuples(),
                    expect,
                    "{kernel:?}"
                ),
                UnitGen::PerPair => assert_eq!(
                    kernel
                        .run_unit_raw(&[lp[0], rp[1]], &out_schema)
                        .to_tuples(),
                    expect,
                    "{kernel:?}"
                ),
                UnitGen::WholeRelation => {
                    let inputs = [lp.clone(), rp.clone()];
                    for buckets in [1u64, 3] {
                        let mut covered = 0;
                        for bucket in 0..buckets {
                            let want: Vec<Tuple> = expect
                                .iter()
                                .filter(|t| tuple_bucket(t, buckets) == bucket)
                                .cloned()
                                .collect();
                            let got = kernel
                                .run_final_bucket_raw(&inputs, bucket, buckets, &out_schema)
                                .to_tuples();
                            assert_eq!(got, want, "{kernel:?} bucket {bucket}/{buckets}");
                            covered += got.len();
                        }
                        assert_eq!(covered, expect.len(), "{kernel:?} over {buckets} buckets");
                    }
                    assert_eq!(
                        kernel.run_final_raw(&inputs, &out_schema).to_tuples(),
                        expect,
                        "{kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tuple_ops_cost_proxy() {
        let pred = Predicate::True;
        assert_eq!(Kernel::Restrict(pred).tuple_ops(&[7]), 7);
        let c = JoinCondition {
            left: 0,
            op: CmpOp::Eq,
            right: 0,
        };
        assert_eq!(Kernel::JoinPair(c, JoinAlgo::Nested).tuple_ops(&[3, 5]), 15);
        // Hash equi-join: build (5 inserts) + probe (3 lookups), not 3×5.
        assert_eq!(Kernel::JoinPair(c, JoinAlgo::Hash).tuple_ops(&[3, 5]), 8);
        // A non-equi θ under Hash degrades to the nested sweep — so does
        // its cost.
        let lt = JoinCondition {
            left: 0,
            op: CmpOp::Lt,
            right: 0,
        };
        assert_eq!(Kernel::JoinPair(lt, JoinAlgo::Hash).tuple_ops(&[3, 5]), 15);
        assert_eq!(Kernel::UnionFinal.tuple_ops(&[3, 5]), 8);
    }

    #[test]
    fn compile_with_sets_join_algo_on_every_join() {
        let db = db();
        let q = parse_query(
            &db,
            "(join (join (scan a) (scan b) (= k k)) (scan c) (= k k))",
        )
        .unwrap();
        let prog = compile_with(
            &db,
            std::slice::from_ref(&q),
            JoinAlgo::Hash,
            TransferMode::default(),
        )
        .unwrap();
        let algos: Vec<JoinAlgo> = prog
            .instructions
            .iter()
            .filter_map(|i| match i.kernel {
                Kernel::JoinPair(_, algo) => Some(algo),
                _ => None,
            })
            .collect();
        assert_eq!(algos, vec![JoinAlgo::Hash, JoinAlgo::Hash]);
        // The plain entry point keeps the paper's default.
        let prog = compile(&db, &[q]).unwrap();
        assert!(prog
            .instructions
            .iter()
            .all(|i| !matches!(i.kernel, Kernel::JoinPair(_, JoinAlgo::Hash))));
    }

    #[test]
    fn pipeline_fuses_restrict_project_chains() {
        let db = db();
        // restrict -> project -> restrict over a scan: one span of 3 steps.
        let q = parse_query(
            &db,
            "(restrict (project (restrict (scan a) (> k 2)) (v)) (< v 16))",
        )
        .unwrap();
        let prog = compile_with(
            &db,
            std::slice::from_ref(&q),
            JoinAlgo::default(),
            TransferMode::Pipeline,
        )
        .unwrap();
        assert_eq!(prog.instructions.len(), 1);
        let span = &prog.instructions[0];
        assert!(matches!(&span.kernel, Kernel::Span(steps) if steps.len() == 3));
        assert_eq!(span.op_name, "span");
        assert_eq!(span.parent, None);
        assert_eq!(span.id, 0);
        assert_eq!(prog.roots, vec![0]);
        assert_eq!(span.operands[0].source.as_deref(), Some("a"));
        // Output schema is the chain top's (just `v`).
        assert_eq!(span.output_schema.arity(), 1);
        assert_eq!(span.output_schema.attrs()[0].name, "v");
        // Span cost = sum of step costs.
        assert_eq!(span.kernel.tuple_ops(&[10]), 30);

        // Materialize mode leaves the chain alone.
        let prog = compile_with(
            &db,
            std::slice::from_ref(&q),
            JoinAlgo::default(),
            TransferMode::Materialize,
        )
        .unwrap();
        assert_eq!(prog.instructions.len(), 3);
    }

    #[test]
    fn pipeline_fuses_below_and_above_joins() {
        let db = db();
        // Two restrict->project legs feeding a join, whose output is then
        // restricted and projected: three chains fuse, the join stays.
        let q = parse_query(
            &db,
            "(project (restrict \
               (join (project (restrict (scan a) (> k 1)) (k v)) \
                     (project (restrict (scan b) (< k 9)) (k v)) \
                     (= k k)) \
               (> v 0)) (v))",
        )
        .unwrap();
        let prog = compile_with(
            &db,
            std::slice::from_ref(&q),
            JoinAlgo::Hash,
            TransferMode::Pipeline,
        )
        .unwrap();
        // 2 leg spans + join + output span.
        assert_eq!(prog.instructions.len(), 4);
        let spans: Vec<_> = prog
            .instructions
            .iter()
            .filter(|i| matches!(i.kernel, Kernel::Span(_)))
            .collect();
        assert_eq!(spans.len(), 3);
        let join = prog
            .instructions
            .iter()
            .find(|i| matches!(i.kernel, Kernel::JoinPair(..)))
            .expect("join survives fusion");
        // The leg spans feed the join's two operand slots.
        let leg_parents: Vec<_> = spans
            .iter()
            .filter_map(|s| s.parent)
            .filter(|(p, _)| *p == join.id)
            .collect();
        assert_eq!(leg_parents.len(), 2);
        assert_ne!(leg_parents[0].1, leg_parents[1].1);
        // The output span is the root.
        let root = &prog.instructions[prog.roots[0]];
        assert!(matches!(&root.kernel, Kernel::Span(steps) if steps.len() == 2));
        // Ids stay dense and children precede parents.
        for (i, instr) in prog.instructions.iter().enumerate() {
            assert_eq!(instr.id, i);
            if let Some((p, _)) = instr.parent {
                assert!(p > i, "child {i} precedes parent {p}");
            }
        }
    }

    /// Fused and unfused programs over the same tree produce identical
    /// results when executed kernel-by-kernel.
    #[test]
    fn span_kernel_matches_unfused_execution() {
        let db = db();
        let q = parse_query(
            &db,
            "(restrict (project (restrict (scan a) (> k 2)) (v)) (< v 16))",
        )
        .unwrap();
        let fused = compile_with(
            &db,
            std::slice::from_ref(&q),
            JoinAlgo::default(),
            TransferMode::Pipeline,
        )
        .unwrap();
        let Kernel::Span(steps) = &fused.instructions[0].kernel else {
            panic!("expected a span");
        };
        let a = db.get("a").unwrap();
        for page in a.pages() {
            let raw = ops::span_page_raw(page, steps, &fused.instructions[0].output_schema);
            assert_eq!(raw.to_tuples(), ops::span_page(page, steps));
            // Unfused reference: restrict, project, restrict by hand.
            let s = a.schema();
            let p1 = Predicate::cmp_const(s, "k", CmpOp::Gt, Value::Int(2)).unwrap();
            let proj = Projection::new(s, &["v"]).unwrap();
            let mid: Vec<Tuple> = ops::restrict_page(page, &p1)
                .iter()
                .map(|t| proj.apply(t).unwrap())
                .collect();
            let out_schema = proj.output_schema(s).unwrap();
            let p2 = Predicate::cmp_const(&out_schema, "v", CmpOp::Lt, Value::Int(16)).unwrap();
            let unfused: Vec<Tuple> = mid.into_iter().filter(|t| p2.eval(t)).collect();
            assert_eq!(raw.to_tuples(), unfused);
        }
    }

    #[test]
    fn hash_join_pair_falls_back_on_non_equi() {
        let db = db();
        let a = db.get("a").unwrap();
        let s = a.schema().clone();
        let page = &a.pages()[0];
        let other = &a.pages()[1];
        let joined = s.concat(&s);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Ne, CmpOp::Gt, CmpOp::Ge] {
            let c = JoinCondition::new(&s, "k", op, &s, "k").unwrap();
            let nested = Kernel::JoinPair(c, JoinAlgo::Nested)
                .run_unit_raw(&[page, other], &joined)
                .to_tuples();
            let hashed = Kernel::JoinPair(c, JoinAlgo::Hash)
                .run_unit_raw(&[page, other], &joined)
                .to_tuples();
            assert_eq!(hashed, nested, "op {op} must degrade to nested loops");
        }
    }
}
