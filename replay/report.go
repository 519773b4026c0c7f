package replay

// Report is the result of one conformance run.
type Report struct {
	// Passed is true when every assertion held.
	Passed      bool
	Conformance []ConformanceRun
	Asserts     []Assertion
}

// ConformanceRun is one execution of the sequential conformance pass.
type ConformanceRun struct {
	Query        string
	DOP          int
	Run          int
	Code         string
	Rows         int64
	SpoolBuilds  int64
	SpoolHits    int64
	PlanCacheHit bool
	TraceID      string
}

// Assertion is one checked expectation, from the manifest or built in.
type Assertion struct {
	Name   string
	OK     bool
	Detail string
}
