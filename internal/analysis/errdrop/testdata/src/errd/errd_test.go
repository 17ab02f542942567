package errd

import "ratel/internal/nvme"

// Test files may drop errors on purpose when exercising failure paths; no
// diagnostics are expected anywhere in this file.
func dropInTestIsFine(a *nvme.Array, data []byte) {
	a.PutClass("weights", data, nvme.ClassWriteback)
	_ = a.ReadIntoClass("weights", data, nvme.ClassCriticalFetch)
	_, _ = a.Size("weights")
	defer a.Close()
}
