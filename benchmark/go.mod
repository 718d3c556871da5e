module indexmerge/benchmark

go 1.22

require indexmerge v0.0.0

replace indexmerge => ../
