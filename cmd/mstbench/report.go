package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark row: a `go test -bench` line, an index-compare
// leg, or a load run.
type result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// report is the JSON document checked into results/ and diffed across
// changes; every report mstbench writes has this shape.
type report struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []result `json:"results"`
}

// write writes the report as indented JSON to path, or to w when path is
// empty.
func (r *report) write(path string, w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err = w.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// parseGoBench reads `go test -bench` text output, keeping the
// environment header lines (goos/goarch/cpu/pkg) and parsing each
// Benchmark result line. Input without a result line is an error.
func parseGoBench(r io.Reader) (*report, error) {
	rep := &report{}
	pkg := ""
	headers := map[string]*string{"goos": &rep.GOOS, "goarch": &rep.GOARCH, "cpu": &rep.CPU, "pkg": &pkg}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if key, val, ok := strings.Cut(line, ":"); ok && headers[key] != nil {
			*headers[key] = strings.TrimSpace(val)
		} else if res, ok := parseBenchLine(line); ok && strings.HasPrefix(line, "Benchmark") {
			res.Package = pkg
			rep.Results = append(rep.Results, res)
		}
	}
	if len(rep.Results) == 0 && sc.Err() == nil {
		return nil, errors.New("gobench: no benchmark lines in the input")
	}
	return rep, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8  1234  56.7 ns/op  8 B/op
// 1 allocs/op  9.9 custom/unit"; ok is false for lines that only name a
// benchmark (sub-benchmark headers) or fail to parse.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return result{}, false
	}
	r := result{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = procs
			r.Name = r.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}
