module adapt/bench

go 1.22

require adapt v0.0.0

replace adapt => ../
