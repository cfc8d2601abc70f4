module cyclosa/benchmark

go 1.21

require cyclosa v0.0.0

replace cyclosa => ../
