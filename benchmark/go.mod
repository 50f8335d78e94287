module kgaq/benchmark

go 1.24.0

require kgaq v0.0.0

replace kgaq => ../
