package sqlmini

// TableStats holds the catalog statistics the cost model uses.
type TableStats struct {
	Name     string
	Rows     int64
	RowBytes int // average row width in bytes
	// Indexed reports whether point predicates on the table can use an index.
	Indexed bool
}

// SizeMB reports the table's data volume in megabytes.
func (t *TableStats) SizeMB() float64 {
	return float64(t.Rows) * float64(t.RowBytes) / (1 << 20)
}

// Catalog is the set of known tables and their statistics.
type Catalog struct {
	tables map[string]*TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*TableStats)}
}

// AddTable registers (or replaces) a table's statistics.
func (c *Catalog) AddTable(name string, rows int64, rowBytes int, indexed bool) *TableStats {
	t := &TableStats{Name: name, Rows: rows, RowBytes: rowBytes, Indexed: indexed}
	c.tables[name] = t
	return t
}

// Table looks up a table, or returns nil if unknown.
func (c *Catalog) Table(name string) *TableStats { return c.tables[name] }

// DefaultCatalog returns a catalog modeled on a small star-schema warehouse
// plus OLTP tables, sized so that BI queries are orders of magnitude more
// expensive than OLTP point queries — the consolidation scenario of the
// paper's introduction.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	// OLTP tables (indexed, narrow).
	c.AddTable("accounts", 1_000_000, 120, true)
	c.AddTable("orders", 5_000_000, 160, true)
	c.AddTable("order_items", 20_000_000, 80, true)
	c.AddTable("customers", 500_000, 200, true)
	// Warehouse fact and dimension tables (fact not indexed for ad-hoc scans).
	c.AddTable("sales_fact", 200_000_000, 64, false)
	c.AddTable("inventory_fact", 50_000_000, 48, false)
	c.AddTable("date_dim", 3_650, 40, true)
	c.AddTable("store_dim", 1_000, 120, true)
	c.AddTable("product_dim", 100_000, 150, true)
	return c
}
