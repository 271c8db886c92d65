// Package hql is the textual query language over the HRDM algebra:
// parser, AST, query-text normalization (NormalizeQuery) and the naive
// reference evaluator (EvalNaive). It does not run queries for
// applications — that is engine.Session's job, which parses with this
// package, plans (applying the Section 5 laws where they pay), and
// falls back to EvalNaive for what it cannot plan. Every operator of
// the paper's algebra is reachable:
//
//	SELECT IF SAL >= 30000 FORALL DURING {[0,9]} FROM EMP
//	SELECT WHEN SAL = 30000 FROM EMP
//	SELECT WHEN SAL = 30000 AND DEPT = "Toys" FROM EMP
//	SELECT IF NOT (SAL < 20000) OR DEPT = "Books" FORALL FROM EMP
//	PROJECT NAME, SAL FROM EMP
//	TIMESLICE EMP AT {[0,9]}             -- static TIME-SLICE
//	TIMESLICE EMP AT WHEN (SELECT WHEN SAL=30000 FROM EMP)
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
// Evaluation is snapshot-isolated on every path: the engine pins a
// verified snapshot per plan, and EvalNaive — the tree-walking
// reference evaluator and the engine's fallback — pins its own
// consistent cut of every referenced relation (pinenv.go) before
// walking, so even unplannable multi-relation queries read one
// database state while writers race.
package hql
