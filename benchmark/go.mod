module digitaltraces/benchmark

go 1.24

require digitaltraces v0.0.0

replace digitaltraces => ../
