package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// decodeInto unmarshals data into a value of type T and returns it as the
// concrete type, matching what a cell's Run returns. A cell row is never
// JSON null, so null is rejected rather than decoded into a nil pointer.
func decodeInto[T any](data []byte) (any, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	if bytes.Equal(bytes.TrimSpace(data), []byte("null")) {
		return nil, errors.New("null row")
	}
	return v, nil
}

// cellRowDecoders maps each experiment to the decoder for one cell's row,
// mirroring the per-cell types its plan produces: a final row where one run
// is one row, runMetrics where the assembler reduces several runs into a
// row, and a partial result where it merges them (fig1, fig45, fig6).
var cellRowDecoders = map[string]func([]byte) (any, error){
	"fig1":       decodeInto[*Fig1Result],
	"table2":     decodeInto[Table2Cell],
	"fig3":       decodeInto[runMetrics],
	"fig45":      decodeInto[*Fig45Result],
	"fig6":       decodeInto[[]Fig6Row],
	"fig7":       decodeInto[runMetrics],
	"fig8":       decodeInto[Fig8Row],
	"table3":     decodeInto[PerfEnergyCell],
	"fig9":       decodeInto[PerfEnergyCell],
	"ablation":   decodeInto[AblationRow],
	"seeds":      decodeInto[runMetrics],
	"manycore":   decodeInto[ManycoreRow],
	"noise":      decodeInto[runMetrics],
	"suite":      decodeInto[SuiteRow],
	"concurrent": decodeInto[ConcurrentRow],
	"library":    decodeInto[LibraryRow],
}

// DecodeCellRow rebuilds one cell's typed row from its JSON serialization.
// The durable job journal stores cell rows as JSON; recovery uses this to
// hand the pool's assembler the same concrete types a live run produces, so
// a recovered job's assembled result is bit-identical (modulo float64 JSON
// round-tripping, which Go's shortest-representation encoding makes exact).
func DecodeCellRow(experiment string, data []byte) (any, error) {
	dec, ok := cellRowDecoders[experiment]
	if !ok {
		return nil, fmt.Errorf("experiments: no row decoder for experiment %q", experiment)
	}
	row, err := dec(data)
	if err != nil {
		return nil, fmt.Errorf("experiments: decode %s cell row: %w", experiment, err)
	}
	return row, nil
}
