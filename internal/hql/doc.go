// Package hql is the textual query language over the HRDM algebra:
// lexer, parser, AST, the lexer pass that splits a query text into its
// shape and its literals (Lift, NormalizeQuery, Render) and the naive
// reference evaluator (EvalNaive). It does not run queries for
// applications — that is engine.Session's job, which parses with this
// package and plans (applying the Section 5 laws where they pay).
// EvalNaive is the oracle the engine is tested against, never a path a
// served query takes. Every operator of the paper's algebra is
// reachable:
//
//	SELECT IF SAL >= 30000 FORALL DURING {[0,9]} FROM EMP
//	SELECT WHEN SAL = 30000 FROM EMP
//	SELECT WHEN SAL = 30000 AND DEPT = "Toys" FROM EMP
//	SELECT IF NOT (SAL < 20000) OR DEPT = "Books" FORALL FROM EMP
//	PROJECT NAME, SAL FROM EMP
//	TIMESLICE EMP AT {[0,9]}             -- static TIME-SLICE
//	TIMESLICE EMP AT WHEN (SELECT WHEN SAL=30000 FROM EMP)
//	TIMESLICE EMP AT ({[0,9]} UNION {[20,29]}) INTERSECT WHEN EMP
//	TIMESLICE EMP BY REVIEW              -- dynamic TIME-SLICE
//	EMP UNION EMP2, EMP UNIONMERGE EMP2, INTERSECT[MERGE], MINUS[MERGE]
//	EMP TIMES DEPTREL                    -- Cartesian product
//	EMP JOIN DEPTREL ON DEPT = DNAME     -- θ-join / equijoin
//	EMP NATJOIN MGR                      -- natural join
//	SHIP TIMEJOIN DEPTREL ON SHIPDATE    -- TIME-JOIN
//	EMP OUTERJOIN DEPTREL ON DEPT = DNAME -- §5 union-lifespan join (nulls)
//	MATERIALIZE EMP                      -- apply interpolators (Figure 9)
//	WHEN EMP                             -- Ω, yields a lifespan
//	SNAPSHOT EMP AT 7                    -- classical snapshot
//
// A selection's constant is a parameter of the query, not part of its
// structure: SELECT WHEN NAME = 'emp0001' FROM EMP and the same query
// on 'emp0002' are one σ-WHEN. Lift makes that concrete in one pass
// over the text: the shape — tokens one blank apart, keywords
// upper-cased, every value literal, literal lifespan and SNAPSHOT time
// replaced by a marker of its kind ($i $f $s $t $L $b) — and the
// literals in source order, the parameter vector. The parser numbers
// the same literals the same way (each literal's Slot in the AST), so
// a plan compiled from one text of a shape runs any other with that
// text's literals bound to the slots. Render puts literals back into a
// shape, as text that parses to the same AST.
//
// Evaluation is snapshot-isolated on every path: the engine pins a
// verified snapshot per plan, and EvalNaive — the tree-walking
// reference evaluator — pins its own consistent cut of every
// referenced relation (pinenv.go) before walking, so the oracle reads
// one database state while writers race.
package hql
