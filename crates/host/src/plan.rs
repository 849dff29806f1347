//! The host's view of a compiled query.
//!
//! df-host runs the very [`Program`] the simulated machines run
//! ([`df_core::instr::compile_with`] builds it): one [`Instruction`] per
//! instruction cell, with scans folded into their parents' operand
//! `source`s and, under pipeline transfers, restrict→project chains fused
//! into spans. This module adds only what the scheduler derives from that
//! program — each cell's `RootFirst` depth and output page size.

use df_core::instr::{Instruction, Kernel, Program};
use df_relalg::PAGE_HEADER_BYTES;

use crate::error::{HostError, HostResult};

/// One instruction cell: a compiled instruction plus its scheduling facts.
#[derive(Debug)]
pub(crate) struct Cell {
    /// Kernel, operands (with their scan sources), output schema, parent.
    pub instr: Instruction,
    /// Query-tree distance of the cell's top operator from the root (root
    /// = 0), the `RootFirst` policy's input. A fused span sits at its chain
    /// top's depth, and the cells below it keep their tree nodes' depths.
    pub depth: usize,
    /// Page size for this cell's output pages: the configured size, grown
    /// if necessary so at least one (possibly very wide) tuple fits.
    pub out_page_size: usize,
}

/// A compiled read-only query: cells in program order (children before
/// parents), indexed by instruction id.
#[derive(Debug)]
pub(crate) struct QueryPlan {
    pub cells: Vec<Cell>,
    pub root: usize,
}

impl QueryPlan {
    /// View the single-query `program` as instruction cells whose output
    /// pages hold at least `page_size` bytes.
    ///
    /// # Errors
    /// Update queries fail with [`HostError::ReadOnlyExecutor`]: the host
    /// executor runs read-only queries (updates stay on the oracle and the
    /// simulated machines, which own catalog mutation).
    pub fn new(program: Program, page_size: usize) -> HostResult<QueryPlan> {
        let root = program.roots[0];
        let instructions = program.instructions;
        if program.updates[0].is_some() {
            return Err(HostError::ReadOnlyExecutor {
                op: instructions[root].op_name.to_string(),
            });
        }
        // Reverse program order visits every parent before its children. A
        // span parent stands for its whole chain, so its child sits one
        // tree level below the chain's bottom.
        let mut depth = vec![0usize; instructions.len()];
        for instr in instructions.iter().rev() {
            if let Some((p, _)) = instr.parent {
                depth[instr.id] = depth[p]
                    + match &instructions[p].kernel {
                        Kernel::Span(steps) => steps.len(),
                        _ => 1,
                    };
            }
        }
        let cells = instructions
            .into_iter()
            .zip(depth)
            .map(|(instr, depth)| Cell {
                out_page_size: page_size.max(PAGE_HEADER_BYTES + instr.output_schema.tuple_width()),
                depth,
                instr,
            })
            .collect();
        Ok(QueryPlan { cells, root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_core::instr::{compile_with, UnitGen};
    use df_core::{JoinAlgo, TransferMode};
    use df_query::{QueryTree, TreeBuilder};
    use df_relalg::{Catalog, CmpOp, DataType, Relation, Schema, Tuple, Value};

    fn db() -> Catalog {
        let mut db = Catalog::new();
        let s = Schema::build()
            .attr("id", DataType::Int)
            .attr("dept", DataType::Int)
            .finish()
            .unwrap();
        db.insert(
            Relation::from_tuples(
                "emp",
                s,
                1024,
                (0..8).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 2)])),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn compile(db: &Catalog, q: &QueryTree, transfer: TransferMode) -> HostResult<QueryPlan> {
        let program = compile_with(db, std::slice::from_ref(q), JoinAlgo::Nested, transfer)?;
        QueryPlan::new(program, 1024)
    }

    #[test]
    fn compiles_shapes_and_depths() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .equi_join(b.scan("emp").unwrap(), "dept", "dept")
            .unwrap()
            .finish();
        let plan = compile(&db, &q, TransferMode::Materialize).unwrap();
        // Scans are operand sources, not cells: restrict(0) -> join(1).
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.root, 1);
        let (restrict, join) = (&plan.cells[0], &plan.cells[1]);
        assert_eq!(join.depth, 0);
        assert_eq!(join.instr.kernel.unit_gen(), UnitGen::PerPair);
        assert_eq!(restrict.instr.parent, Some((1, 0)));
        assert_eq!(restrict.instr.operands[0].source.as_deref(), Some("emp"));
        assert_eq!(join.instr.operands[1].source.as_deref(), Some("emp"));
        assert!(join.instr.operands[0].source.is_none());
        assert_eq!(restrict.depth, 1);
        // Join output is wider than either input.
        assert_eq!(join.instr.output_schema.arity(), 4);
    }

    #[test]
    fn dedup_project_is_blocking_and_plain_is_not() {
        let db = db();
        for (dedup, firing) in [(true, UnitGen::WholeRelation), (false, UnitGen::PerPage)] {
            let q = TreeBuilder::new(&db)
                .scan("emp")
                .unwrap()
                .project(&["dept"], dedup)
                .unwrap()
                .finish();
            let plan = compile(&db, &q, TransferMode::Materialize).unwrap();
            assert_eq!(plan.cells[0].instr.kernel.unit_gen(), firing);
        }
    }

    #[test]
    fn pipeline_fuses_chain_into_one_cell() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .project(&["dept"], false)
            .unwrap()
            .finish();
        let plan = compile(&db, &q, TransferMode::Pipeline).unwrap();
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.root, 0);
        let span = &plan.cells[0];
        assert!(matches!(&span.instr.kernel, Kernel::Span(steps) if steps.len() == 2));
        assert_eq!(span.instr.parent, None);
        assert_eq!(span.depth, 0);
        assert_eq!(span.instr.output_schema.arity(), 1);
        assert_eq!(span.instr.kernel.unit_gen(), UnitGen::PerPage);
        // The scan feeds the span directly.
        assert_eq!(span.instr.operands[0].source.as_deref(), Some("emp"));
        // Materialize mode leaves the chain unfused.
        let plan = compile(&db, &q, TransferMode::Materialize).unwrap();
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.root, 1);
        assert_eq!(plan.cells[0].depth, 1);
    }

    #[test]
    fn pipeline_fuses_legs_below_a_join() {
        let db = db();
        let b = TreeBuilder::new(&db);
        let left = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(1))
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(6))
            .unwrap();
        let q = left
            .equi_join(b.scan("emp").unwrap(), "dept", "dept")
            .unwrap()
            .finish();
        let plan = compile(&db, &q, TransferMode::Pipeline).unwrap();
        // The two restricts fuse into span 0, feeding the join's port 0.
        assert_eq!(plan.cells.len(), 2);
        assert!(matches!(&plan.cells[0].instr.kernel, Kernel::Span(steps) if steps.len() == 2));
        assert_eq!(plan.cells[0].instr.parent, Some((1, 0)));
        assert_eq!(plan.cells[0].depth, 1);
        assert_eq!(plan.root, 1);
        // A lone restrict (or project) never fuses: chain length 1.
        let q = TreeBuilder::new(&db)
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(2))
            .unwrap()
            .finish();
        let plan = compile(&db, &q, TransferMode::Pipeline).unwrap();
        assert!(matches!(plan.cells[0].instr.kernel, Kernel::Restrict(_)));
    }

    #[test]
    fn tiny_page_size_grows_to_fit_one_tuple() {
        let db = db();
        let q = TreeBuilder::new(&db).scan("emp").unwrap().finish();
        let program = compile_with(&db, &[q], JoinAlgo::Nested, TransferMode::Materialize).unwrap();
        let plan = QueryPlan::new(program, 8).unwrap();
        assert!(plan.cells[0].out_page_size >= PAGE_HEADER_BYTES + 16);
    }

    #[test]
    fn cells_below_a_fused_span_keep_their_tree_depths() {
        let db = db();
        let b = TreeBuilder::new(&db);
        // project(0) <- restrict(1) <- join(2) <- restrict(3) <- scan, scan.
        let q = b
            .scan("emp")
            .unwrap()
            .restrict_where("id", CmpOp::Gt, Value::Int(1))
            .unwrap()
            .equi_join(b.scan("emp").unwrap(), "dept", "dept")
            .unwrap()
            .restrict_where("id", CmpOp::Lt, Value::Int(6))
            .unwrap()
            .project(&["dept"], false)
            .unwrap()
            .finish();
        let depths = |transfer| {
            let plan = compile(&db, &q, transfer).unwrap();
            let mut by_op: Vec<(&'static str, usize)> = plan
                .cells
                .iter()
                .map(|c| (c.instr.op_name, c.depth))
                .collect();
            by_op.sort();
            by_op
        };
        assert_eq!(
            depths(TransferMode::Materialize),
            vec![
                ("join", 2),
                ("project", 0),
                ("restrict", 1),
                ("restrict", 3)
            ]
        );
        // The restrict→project chain above the join becomes one span at
        // the chain top's depth; the join and its leg do not move up.
        assert_eq!(
            depths(TransferMode::Pipeline),
            vec![("join", 2), ("restrict", 3), ("span", 0)]
        );
    }

    #[test]
    fn rejects_updates() {
        let db = db();
        let q = TreeBuilder::new(&db)
            .delete_where("emp", "id", CmpOp::Eq, Value::Int(0))
            .unwrap();
        let err = compile(&db, &q, TransferMode::Materialize).unwrap_err();
        assert!(err.to_string().contains("read-only"));
        assert!(matches!(err, HostError::ReadOnlyExecutor { op } if op == "delete"));
    }
}
