// Integrated pipeline: the paper's motivating trend (§1) — ingestion,
// SQL analytics, and ML training in ONE job on ONE runtime, exchanging
// intermediate data through the caching layer rather than durable storage,
// and surviving a node failure mid-pipeline via lineage.
//
// Run with: go run ./examples/integrated_pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"

	"skadi/internal/arrowlite"
	"skadi/internal/core"
	"skadi/internal/frontend/mlfe"
	"skadi/internal/frontend/mrfe"
	"skadi/internal/ir"
	"skadi/internal/runtime"
)

func main() {
	s, err := core.New(core.ClusterSpec{
		Servers: 5, ServerSlots: 4, ServerMemBytes: 256 << 20,
		GPUs: 2, DeviceSlots: 2, DeviceMemBytes: 64 << 20,
		MemBladeBytes: 512 << 20,
	}, core.Options{Recovery: runtime.Recover})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	// --- Stage 1: ingestion (MapReduce over raw logs). ---
	// Raw access logs → (region, response_ms) records.
	var logs [][]byte
	regions := []string{"east", "west", "north", "south"}
	seed := uint64(5)
	next := func(mod int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(mod))
	}
	for i := 0; i < 2000; i++ {
		region := regions[next(4)]
		ms := 20 + next(200)
		logs = append(logs, []byte(fmt.Sprintf("GET /api %s %dms", region, ms)))
	}
	ingest := &mrfe.Job{
		Name: "ingest",
		Map: func(rec []byte) []mrfe.KV {
			parts := strings.Fields(string(rec))
			return []mrfe.KV{{Key: parts[2], Value: []byte(strings.TrimSuffix(parts[3], "ms"))}}
		},
		Reduce: func(key string, values [][]byte) []byte {
			// Emit "count,total" per region.
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(string(v))
				total += n
			}
			return []byte(fmt.Sprintf("%d,%d", len(values), total))
		},
	}
	perRegion, err := s.MapReduce(ctx, ingest, logs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stage 1 (ingest): per-region request stats")
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "requests", Type: arrowlite.Int64},
		arrowlite.Field{Name: "total_ms", Type: arrowlite.Float64},
	))
	for _, kv := range perRegion {
		count, total, _ := strings.Cut(string(kv.Value), ",")
		c, _ := strconv.ParseInt(count, 10, 64)
		tms, _ := strconv.ParseFloat(total, 64)
		fmt.Printf("  %-6s requests=%-4d total=%.0fms\n", kv.Key, c, tms)
		if err := b.Append(kv.Key, c, tms); err != nil {
			log.Fatal(err)
		}
	}

	// --- Stage 2: SQL over the ingested table. ---
	stats, err := s.SQL(ctx,
		"SELECT region, SUM(total_ms), SUM(requests) FROM traffic GROUP BY region ORDER BY sum_total_ms DESC",
		map[string]*arrowlite.Batch{"traffic": b.Build()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstage 2 (sql): load ranking")
	for r := 0; r < stats.NumRows(); r++ {
		fmt.Printf("  %-6s total=%.0fms requests=%.0f\n",
			stats.ColByName("region").BytesAt(r),
			stats.ColByName("sum_total_ms").Floats[r],
			stats.ColByName("sum_requests").Floats[r])
	}

	// --- Failure injection: kill a worker mid-pipeline. ---
	victim := s.Runtime().Raylets()[1].Node()
	lost := s.Runtime().KillNode(victim)
	fmt.Printf("\n!! killed a worker node mid-pipeline (%d objects stayed lost after recovery)\n", len(lost))

	// --- Stage 3: ML on the SQL output. ---
	// Learn mean latency per request: total_ms ≈ w * requests.
	n := stats.NumRows()
	x, y := ir.NewTensor(n, 1), ir.NewTensor(n, 1)
	for r := 0; r < n; r++ {
		x.Data[r] = stats.ColByName("sum_requests").Floats[r] / 100
		y.Data[r] = stats.ColByName("sum_total_ms").Floats[r] / 100
	}
	w, hist, err := s.TrainLinear(ctx, &mlfe.SGDTrainer{LearningRate: 0.02, Epochs: 120}, x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstage 3 (ml): fitted mean latency = %.1f ms/request (loss %.3f -> %.5f)\n",
		w.Data[0], hist[0], hist[len(hist)-1])

	fstats := s.Runtime().FabricStats()
	fmt.Printf("\none job, three data systems, zero durable-storage bounces: %.2f MiB over the fabric\n",
		float64(fstats.Bytes)/(1<<20))
}
