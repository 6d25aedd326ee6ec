package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cartel"
	"repro/internal/dist"
)

// batch is one pre-rendered INSERTBATCH request.
type batch struct {
	stream string
	rows   int
	line   []byte // "INSERTBATCH <stream> ... | ...\n"
}

// payload is the request without its verb and newline — the string the
// server journals and parses.
func (b batch) payload() string {
	return string(b.line[len("INSERTBATCH ") : len(b.line)-1])
}

type query struct{ id, sql string }

// workload is one traffic mix. Everything but the input seed is fixed:
// daemon flags, engine seed, queries, batch size and open-loop rate.
type workload struct {
	name    string
	durable bool
	fsync   string
	routed  bool // router + durable primary + durable follower
	// batchRows is the INSERTBATCH size; rate the open-loop offered load
	// (rows/s), about a third of the closed-loop peak on the reference
	// host, so the open loop stays below capacity when the host slows down.
	batchRows int
	rate      float64
	// readRate is how many STATS/EXPLAIN reads per second the subscriber
	// connection issues during the open-loop phase. It is chosen so the
	// read interval is no multiple of the batch interval: reads then land
	// at every phase of the batch cycle, instead of always right behind a
	// batch (or always between two).
	readRate float64
	streams  []string // STREAM payloads
	queries  []query
	// poolBatches is how many distinct batches gen makes; the phases
	// cycle through them.
	poolBatches int
	gen         func(seed uint64, n int) ([]batch, error)
}

// The engine settings every asdbd runs with; daemonConfig builds the same
// core.Config in process for the traced replay.
const (
	engineSeed  = 7
	engineLevel = 0.9
)

var engineFlags = []string{"-seed", strconv.Itoa(engineSeed), "-method", "analytical",
	"-level", strconv.FormatFloat(engineLevel, 'g', -1, 64)}

var workloads = []*workload{
	{
		name:        "cartel-durable",
		durable:     true,
		fsync:       "always",
		batchRows:   32,
		rate:        16000,
		readRate:    53,
		streams:     []string{"probes segment delay:dist"},
		queries:     cartelQueries(),
		poolBatches: 2048,
		gen:         genCartel,
	},
	{
		name:        "fleet-accuracy",
		batchRows:   32,
		rate:        2400,
		readRate:    53,
		streams:     []string{"telemetry vehicle speed:dist", "loads vehicle weight:dist"},
		queries:     fleetQueries(),
		poolBatches: 512,
		gen:         genFleet,
	},
	{
		name:        "routed-replica",
		durable:     true,
		fsync:       "interval",
		routed:      true,
		batchRows:   4,
		rate:        2000,
		readRate:    53,
		streams:     []string{"readings sensor value:dist"},
		queries:     routedQueries(),
		poolBatches: 4096,
		gen:         genRouted,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// streamOf returns the source streams of a query, for the STATS In check.
func (w *workload) streamsOf(q query) []string {
	var out []string
	for _, s := range w.streams {
		name := firstWord(s)
		if strings.Contains(q.sql, " "+name+" ") || strings.HasSuffix(q.sql, " "+name) ||
			strings.Contains(q.sql, " "+name+".") {
			out = append(out, name)
		}
	}
	return out
}

// cartelQueries: a planner-shared sketch group (three identical
// COUNT/AVG/SUM queries over one 4096-row window, which emits once per
// sketch block) plus one selective probabilistic filter.
func cartelQueries() []query {
	agg := "SELECT COUNT(delay) AS c, AVG(delay) AS a, SUM(delay) AS s FROM probes WINDOW 4096 ROWS BACKEND SKETCH"
	return []query{
		{"agg1", agg},
		{"agg2", agg},
		{"agg3", agg},
		{"slow", "SELECT segment, delay FROM probes WHERE PROB(delay > 240) >= 0.9"},
	}
}

// genCartel renders CarTel probe reports: each row is one segment's id
// and its eight raw delay observations, sent as S(...) so the server
// learns the field.
func genCartel(seed uint64, n int) ([]batch, error) {
	net, err := cartel.NewNetwork(200, seed)
	if err != nil {
		return nil, err
	}
	pick := dist.NewRand(seed ^ 0x9e3779b97f4a7c15)
	total := 0.0
	for _, s := range net.Segments {
		total += s.Rate
	}
	out := make([]batch, n)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		sb.WriteString("INSERTBATCH probes")
		for r := 0; r < 32; r++ {
			if r > 0 {
				sb.WriteString(" |")
			}
			// Probes pick segments in proportion to their traffic rate.
			x := pick.Float64() * total
			seg := len(net.Segments)
			for j, s := range net.Segments {
				if x -= s.Rate; x < 0 {
					seg = j + 1
					break
				}
			}
			obs, err := net.Observe(seg, 8)
			if err != nil {
				return nil, err
			}
			sb.WriteString(" ")
			sb.WriteString(strconv.Itoa(seg))
			sb.WriteString(" S(")
			for k, v := range obs {
				if k > 0 {
					sb.WriteByte(';')
				}
				sb.WriteString(strconv.FormatFloat(v, 'f', 2, 64))
			}
			sb.WriteString(")")
		}
		sb.WriteString("\n")
		out[i] = batch{stream: "probes", rows: 32, line: []byte(sb.String())}
	}
	return out, nil
}

// fleetQueries exercise the accuracy kernels, windows, aggregates and the
// planner: a bootstrap AVG, a short Monte Carlo MAX, a per-vehicle GROUP
// BY, an MTEST filter, an MTEST join, and a shared AVG/SUM/COUNT trio.
func fleetQueries() []query {
	return []query{
		{"boot", "SELECT AVG(speed) AS a FROM telemetry WINDOW 1000 ROWS BACKEND BOOTSTRAP"},
		{"mcmax", "SELECT MAX(speed) AS m FROM telemetry WHERE vehicle <= 8 WINDOW 4 ROWS"},
		{"pervehicle", "SELECT vehicle, AVG(speed) AS a FROM telemetry GROUP BY vehicle WINDOW 3 ROWS"},
		{"speeding", "SELECT vehicle, speed FROM telemetry WHERE MTEST(speed, '>', 90, 0.05)"},
		{"alerts", "SELECT telemetry.speed, loads.weight FROM telemetry JOIN loads ON vehicle = vehicle " +
			"WHERE MTEST(telemetry.speed, '>', 90, 0.05) AND loads.weight > 900 WINDOW 16 ROWS"},
		{"trio_avg", "SELECT AVG(speed) AS a FROM telemetry WINDOW 64 ROWS"},
		{"trio_sum", "SELECT SUM(speed) AS s FROM telemetry WINDOW 64 ROWS"},
		{"trio_count", "SELECT COUNT(speed) AS c FROM telemetry WINDOW 64 ROWS"},
	}
}

// genFleet renders fleet telemetry: speed fields learned from GPS bursts
// of 4 to 30 readings (sent as N(mean,var,n)), with one loads batch after
// every seven telemetry batches.
func genFleet(seed uint64, n int) ([]batch, error) {
	const vehicles = 64
	rng := dist.NewRand(seed)
	speed := make([]float64, vehicles+1)
	weight := make([]float64, vehicles+1)
	for v := 1; v <= vehicles; v++ {
		speed[v] = 50 + 50*rng.Float64()
		weight[v] = 300 + 800*rng.Float64()
	}
	out := make([]batch, n)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		name := "telemetry"
		if i%8 == 7 {
			name = "loads"
		}
		sb.WriteString("INSERTBATCH " + name)
		for r := 0; r < 32; r++ {
			if r > 0 {
				sb.WriteString(" |")
			}
			v := 1 + rng.Intn(vehicles)
			var mean, variance float64
			count := 12
			if name == "telemetry" {
				count = 4 + rng.Intn(27)
				sum, sumSq := 0.0, 0.0
				for k := 0; k < count; k++ {
					x := speed[v] + 8*rng.NormFloat64()
					sum += x
					sumSq += x * x
				}
				mean = sum / float64(count)
				variance = math.Max((sumSq-sum*mean)/float64(count-1), 1e-3)
			} else {
				mean = weight[v] + 50*rng.NormFloat64()
				variance = 2500
			}
			fmt.Fprintf(&sb, " %d N(%s,%s,%d)", v,
				strconv.FormatFloat(mean, 'f', 3, 64), strconv.FormatFloat(variance, 'f', 3, 64), count)
		}
		sb.WriteString("\n")
		out[i] = batch{stream: name, rows: 32, line: []byte(sb.String())}
	}
	return out, nil
}

// routedQueries are three cheap queries that each emit one DATA line per
// row, so the read and fan-out path (relay, render, socket writes, WAL
// ship and follower apply) does most of the work.
func routedQueries() []query {
	return []query{
		{"r_all", "SELECT sensor, value FROM readings"},
		{"r_value", "SELECT value FROM readings"},
		{"r_sensor", "SELECT sensor FROM readings"},
	}
}

func genRouted(seed uint64, n int) ([]batch, error) {
	rng := dist.NewRand(seed)
	out := make([]batch, n)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		sb.WriteString("INSERTBATCH readings")
		for r := 0; r < 4; r++ {
			if r > 0 {
				sb.WriteString(" |")
			}
			fmt.Fprintf(&sb, " %d N(%s,%s,%d)", 1+rng.Intn(500),
				strconv.FormatFloat(20+10*rng.Float64(), 'f', 3, 64),
				strconv.FormatFloat(1+4*rng.Float64(), 'f', 3, 64), 5+rng.Intn(40))
		}
		sb.WriteString("\n")
		out[i] = batch{stream: "readings", rows: 4, line: []byte(sb.String())}
	}
	return out, nil
}
