module cutfit/benchmark

go 1.24

require cutfit v0.0.0

replace cutfit => ../
