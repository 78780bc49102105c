// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` neither builds nor depends on it; the
// replace directive points back at the program it measures.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
