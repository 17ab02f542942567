// Package errd is errdrop's golden testdata. It imports the real nvme and
// trace packages so callee package paths resolve as they do in the engine.
package errd

import (
	"fmt"
	"io"

	"ratel/internal/nvme"
	"ratel/internal/sim"
	"ratel/internal/trace"
	"ratel/internal/units"
)

func statementDrop(a *nvme.Array, data []byte) {
	a.PutClass("weights", data, nvme.ClassWriteback) // want `call drops the error returned by nvme.PutClass`
}

func blankRead(a *nvme.Array, dst []byte) {
	_ = a.ReadIntoClass("weights", dst, nvme.ClassOptRead) // want `error returned by nvme.ReadIntoClass assigned to blank identifier`
}

func deferDrop(a *nvme.Array) {
	defer a.Close() // want `deferred call drops the error returned by nvme.Close`
}

func blankSingle(res sim.Result, w io.Writer) {
	_ = trace.WriteJSON(res, w) // want `error returned by trace.WriteJSON assigned to blank identifier`
}

func blankMulti(a *nvme.Array) units.Bytes {
	n, _ := a.Size("weights") // want `error returned by nvme.Size assigned to blank identifier`
	return n
}

func checkedIsFine(a *nvme.Array, data []byte) error {
	if err := a.PutClass("weights", data, nvme.ClassWriteback); err != nil {
		return err
	}
	return a.Close()
}

func deferClosureIsFine(a *nvme.Array) (err error) {
	defer func() {
		if cerr := a.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return nil
}

func capturedReadIsFine(a *nvme.Array, dst []byte) error {
	return a.ReadIntoClass("weights", dst, nvme.ClassCriticalFetch)
}

func capturedMultiIsFine(a *nvme.Array) (units.Bytes, error) {
	return a.Size("weights")
}

func noErrorResultIsFine(res sim.Result) string {
	return trace.Gantt(res, 80)
}

func unwatchedPackageIsFine(w io.Writer) {
	fmt.Fprintln(w, "status") // fmt is not a watched write path
}
