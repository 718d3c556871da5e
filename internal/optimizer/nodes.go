package optimizer

import (
	"fmt"
	"strings"

	"indexmerge/internal/catalog"
	"indexmerge/internal/sql"
)

// Node is a physical plan operator. Costs are cumulative (include
// children); Rows is the estimated output cardinality.
type Node interface {
	Cost() float64
	Rows() float64
	Children() []Node
	Describe() string
}

type baseNode struct {
	cost     float64
	rows     float64
	children []Node
}

func (b *baseNode) Cost() float64    { return b.cost }
func (b *baseNode) Rows() float64    { return b.rows }
func (b *baseNode) Children() []Node { return b.children }

// TableScanNode reads the whole heap, applying residual predicates.
type TableScanNode struct {
	baseNode
	Table  string
	Filter []sql.Predicate
}

// Describe implements Node.
func (n *TableScanNode) Describe() string {
	s := "TableScan(" + n.Table + ")"
	if len(n.Filter) > 0 {
		s += " filter=" + predList(n.Filter)
	}
	return s
}

// IndexScanNode reads an entire index as a narrow vertical slice — the
// "index scan" usage mode from paper §3.3.1. It only arises when the
// index covers the query's column slice for the table.
type IndexScanNode struct {
	baseNode
	Index  catalog.IndexDef
	Filter []sql.Predicate
}

// Describe implements Node.
func (n *IndexScanNode) Describe() string {
	s := "IndexScan(" + n.Index.Name + ")"
	if len(n.Filter) > 0 {
		s += " filter=" + predList(n.Filter)
	}
	return s
}

// IndexSeekNode descends the B+-tree using an equality prefix plus at
// most one range predicate — the "index seek" usage mode. When the
// index does not cover the needed columns, each match costs a RID
// lookup into the heap.
type IndexSeekNode struct {
	baseNode
	Index    catalog.IndexDef
	SeekEq   []sql.Predicate // equality predicates on the leading columns
	SeekRng  *sql.Predicate  // optional range predicate on the next column
	Residual []sql.Predicate // remaining predicates applied after fetch
	Covering bool            // no RID lookups needed
}

// Describe implements Node.
func (n *IndexSeekNode) Describe() string {
	var seeks []string
	for _, p := range n.SeekEq {
		seeks = append(seeks, p.String())
	}
	if n.SeekRng != nil {
		seeks = append(seeks, n.SeekRng.String())
	}
	s := fmt.Sprintf("IndexSeek(%s) seek=[%s]", n.Index.Name, strings.Join(seeks, " AND "))
	if !n.Covering {
		s += " +RIDLookup"
	}
	if len(n.Residual) > 0 {
		s += " residual=" + predList(n.Residual)
	}
	return s
}

// JoinKind enumerates physical join algorithms.
type JoinKind int

// Physical join algorithms.
const (
	HashJoin JoinKind = iota
	IndexNLJoin
	NLJoin
)

func (k JoinKind) String() string {
	switch k {
	case HashJoin:
		return "HashJoin"
	case IndexNLJoin:
		return "IndexNLJoin"
	case NLJoin:
		return "NLJoin"
	}
	return "Join"
}

// JoinNode joins two inputs on equality predicates. For IndexNLJoin
// the right child is the parameterized inner seek.
type JoinNode struct {
	baseNode
	Kind JoinKind
	On   []sql.JoinPred
}

// Describe implements Node.
func (n *JoinNode) Describe() string {
	var conds []string
	for _, j := range n.On {
		conds = append(conds, j.String())
	}
	return fmt.Sprintf("%s on [%s]", n.Kind, strings.Join(conds, " AND "))
}

// SortNode orders its input.
type SortNode struct {
	baseNode
	Keys []sql.OrderItem
}

// Describe implements Node.
func (n *SortNode) Describe() string {
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = k.String()
	}
	return "Sort(" + strings.Join(keys, ", ") + ")"
}

// AggNode groups and aggregates. Streaming requires sorted input.
type AggNode struct {
	baseNode
	GroupBy   []sql.ColumnRef
	Aggs      []sql.SelectItem
	Streaming bool
}

// Describe implements Node.
func (n *AggNode) Describe() string {
	mode := "HashAggregate"
	if n.Streaming {
		mode = "StreamAggregate"
	}
	if len(n.GroupBy) == 0 {
		return mode + " (scalar)"
	}
	keys := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		keys[i] = g.String()
	}
	return mode + " by (" + strings.Join(keys, ", ") + ")"
}

// ProjectNode trims the output to the select list.
type ProjectNode struct {
	baseNode
	Items []sql.SelectItem
}

// Describe implements Node.
func (n *ProjectNode) Describe() string {
	items := make([]string, len(n.Items))
	for i, it := range n.Items {
		items[i] = it.String()
	}
	return "Project(" + strings.Join(items, ", ") + ")"
}

func predList(ps []sql.Predicate) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, " AND ") + "]"
}

// UsageMode says how a plan used an index — the distinction at the
// heart of MergePair-Cost (paper §3.3.1).
type UsageMode int

// Index usage modes.
const (
	UsageSeek UsageMode = iota
	UsageScan
)

func (m UsageMode) String() string {
	if m == UsageSeek {
		return "seek"
	}
	return "scan"
}

// IndexUse records one index's participation in a plan.
type IndexUse struct {
	Index catalog.IndexDef
	Mode  UsageMode
}

// Plan is the optimizer's output: root operator, total estimated cost,
// and the Showplan-style index usage report — the indexes the plan's
// leaves seek or scan, in pre-order, each (mode, table, columns) once.
type Plan struct {
	Root Node
	Cost float64
	Uses []IndexUse
}

// Explain renders the plan tree as indented text (Showplan analogue).
func (p *Plan) Explain() string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		fmt.Fprintf(&b, "%s%s  (cost=%.2f rows=%.0f)\n", strings.Repeat("  ", depth), n.Describe(), n.Cost(), n.Rows())
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}
